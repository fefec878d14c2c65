//! Content-addressed result cache: one sharded directory of record files.
//!
//! Simulation points are pure functions of their canonical run request
//! (program, parameters, configuration, execution mode, fault plan), so
//! their results are addressable artifacts: the higher layers digest the
//! request into a [`Key`] and store/retrieve the encoded result through a
//! [`ResultCache`]. A warm cache turns a multi-minute sweep re-run into a
//! directory of file reads.
//!
//! Each record lives in its own file, `<dir>/<hex[..2]>/<hex>.run`
//! (256-way sharding on the key's first byte), written to a temp file
//! and renamed into place so concurrent writers never expose a torn
//! record. A lookup is one file read, a [`ResultCache::contains`] probe
//! is one `stat`, and nothing is held in memory but three counters. A
//! full `--small` paper regeneration stores a few hundred records of
//! under 1 KB each, so there is no byte budget, eviction or compression:
//! the OS page cache already keeps the working set in memory.
//!
//! This module is deliberately value-agnostic: it maps keys to UTF-8
//! blobs. What goes into the digest and how results are encoded lives
//! with the types being cached (`near_stream::RunRequest`), keeping the
//! dependency direction sim → core intact. [`ResultCache::lookup`] takes
//! the caller's decoder, so a record that fails to decode (torn by an
//! older writer, or from an incompatible format) counts as a miss and is
//! overwritten by the re-simulated result.
//!
//! Arming: the cache is consulted only when the `NSC_CACHE` environment
//! variable is set to a non-empty value other than `0` *and* no runtime
//! override disabled it ([`set_disabled`], used by the `--no-cache`
//! flag). `NSC_RESULTS_DIR` relocates the `results/` root, and
//! `NSC_CACHE_DIR` overrides the cache directory outright; both are
//! latched at first [`shared`] use.
//!
//! Hits, misses and stores are tracked in [`CacheStats`]; harness reports
//! surface them in the `host` block, next to `jobs` and `wall_ms`,
//! because they legitimately differ between a cold and a warm run of
//! otherwise identical work.
//!
//! # Examples
//!
//! ```
//! use nsc_sim::cache::{Digest, Key};
//!
//! let mut d = Digest::new("example-schema-v1");
//! d.str("histogram");
//! d.u64(42);
//! let key: Key = d.finish();
//! let mut d2 = Digest::new("example-schema-v1");
//! d2.str("histogram");
//! d2.u64(43); // one-field perturbation
//! assert_ne!(key, d2.finish());
//! // Keys round-trip through their hex rendering (inspector addressing).
//! assert_eq!(Key::parse_hex(&key.hex()), Some(key));
//! ```

use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::OnceLock;

use crate::metrics::{self, Metric};

/// A 128-bit content digest, rendered as 32 hex digits.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Key {
    hi: u64,
    lo: u64,
}

impl Key {
    /// The 32-hex-digit rendering used as the on-disk file stem.
    pub fn hex(&self) -> String {
        format!("{:016x}{:016x}", self.hi, self.lo)
    }

    /// The high 64 bits (used to tag trace events compactly).
    pub fn hi(&self) -> u64 {
        self.hi
    }

    /// The low 64 bits (with [`Key::hi`], names the full key).
    pub fn lo(&self) -> u64 {
        self.lo
    }

    /// Parses the 32-hex-digit rendering back into a key (the inverse of
    /// [`Key::hex`]), so inspectors can address entries by name.
    pub fn parse_hex(s: &str) -> Option<Key> {
        if s.len() != 32 || !s.bytes().all(|b| b.is_ascii_hexdigit()) {
            return None;
        }
        let hi = u64::from_str_radix(&s[..16], 16).ok()?;
        let lo = u64::from_str_radix(&s[16..], 16).ok()?;
        Some(Key { hi, lo })
    }
}

impl std::fmt::Display for Key {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.hex())
    }
}

/// An incremental 128-bit digest over the canonical byte encoding of a
/// run request.
///
/// Two independent FNV-1a-style lanes (distinct offset bases and primes)
/// are mixed through a splitmix64 finalizer. This is not cryptographic —
/// the threat model is accidental collision between the few thousand
/// distinct simulation points of an evaluation campaign, for which
/// 128 bits of well-mixed state is comfortable.
#[derive(Clone, Debug)]
pub struct Digest {
    a: u64,
    b: u64,
    len: u64,
}

impl Digest {
    /// Starts a digest, folding in `schema` first so any schema/version
    /// bump invalidates every previously stored entry.
    pub fn new(schema: &str) -> Digest {
        let mut d = Digest {
            a: 0xcbf2_9ce4_8422_2325,
            b: 0x6c62_272e_07bb_0142,
            len: 0,
        };
        d.str(schema);
        d
    }

    /// Folds raw bytes into the digest.
    pub fn bytes(&mut self, bytes: &[u8]) {
        for &byte in bytes {
            self.a = (self.a ^ byte as u64).wrapping_mul(0x0000_0100_0000_01b3);
            self.b = (self.b ^ byte as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15) ^ (self.b >> 29);
        }
        self.len = self.len.wrapping_add(bytes.len() as u64);
    }

    /// Folds a length-prefixed string (prefixing prevents `"ab" + "c"`
    /// from colliding with `"a" + "bc"` across field boundaries).
    pub fn str(&mut self, s: &str) {
        self.u64(s.len() as u64);
        self.bytes(s.as_bytes());
    }

    /// Folds one little-endian `u64`.
    pub fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    /// Folds an `f64` by bit pattern (distinguishes `0.0` from `-0.0`;
    /// NaN payloads fold as-is, which is fine for configuration data).
    pub fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }

    /// Finalizes into a [`Key`].
    pub fn finish(&self) -> Key {
        fn mix(mut z: u64) -> u64 {
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        }
        Key {
            hi: mix(self.a ^ mix(self.len)),
            lo: mix(self.b.wrapping_add(mix(self.a.rotate_left(32)))),
        }
    }
}

static DISABLED: AtomicBool = AtomicBool::new(false);

fn env_armed() -> bool {
    static ARMED: OnceLock<bool> = OnceLock::new();
    *ARMED.get_or_init(|| {
        matches!(std::env::var("NSC_CACHE"), Ok(v) if !v.is_empty() && v != "0")
    })
}

/// Whether cache consultation is armed (`NSC_CACHE=1` and not overridden
/// by [`set_disabled`]).
pub fn enabled() -> bool {
    env_armed() && !DISABLED.load(Ordering::Relaxed)
}

/// Runtime override: `set_disabled(true)` forces the cache off even when
/// `NSC_CACHE` is set (the `--no-cache` harness flag).
pub fn set_disabled(disabled: bool) {
    DISABLED.store(disabled, Ordering::Relaxed);
}

/// The cache root: `NSC_CACHE_DIR`, else `<results dir>/.cache` where the
/// results dir honors `NSC_RESULTS_DIR` exactly like the bench reports.
pub fn dir() -> PathBuf {
    if let Some(d) = std::env::var_os("NSC_CACHE_DIR") {
        return PathBuf::from(d);
    }
    std::env::var_os("NSC_RESULTS_DIR")
        .map(PathBuf::from)
        .unwrap_or_else(|| PathBuf::from("results"))
        .join(".cache")
}

/// Lookup and store counters, snapshotted by [`ResultCache::stats`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups that found a record and decoded it.
    pub hits: u64,
    /// Lookups that found no record, or one that failed to decode (the
    /// run had to simulate).
    pub misses: u64,
    /// Records written.
    pub stores: u64,
}

/// What the cache directory holds, from a walk of its shards
/// ([`ResultCache::footprint`]).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Footprint {
    /// Record files.
    pub entries: u64,
    /// Their total size in bytes.
    pub bytes: u64,
}

/// The result store: one record file per key under a root directory.
/// See the module docs for the layout; [`shared`] holds the process-wide
/// instance, and tests build private ones with [`ResultCache::at`].
pub struct ResultCache {
    dir: PathBuf,
    hits: AtomicU64,
    misses: AtomicU64,
    stores: AtomicU64,
}

impl ResultCache {
    /// A store rooted at `dir`. Nothing is read or created until the
    /// first store, so a store over an existing directory serves the
    /// records already there.
    pub fn at(dir: PathBuf) -> ResultCache {
        ResultCache {
            dir,
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            stores: AtomicU64::new(0),
        }
    }

    /// The root directory.
    pub fn root(&self) -> &Path {
        &self.dir
    }

    /// Where `key`'s record lives: `<dir>/<hex[..2]>/<hex>.run`.
    fn entry_path(&self, key: &Key) -> PathBuf {
        let hex = key.hex();
        self.dir.join(&hex[..2]).join(format!("{hex}.run"))
    }

    /// Reads `key`'s record and decodes it with `decode`, counting a hit
    /// only when both succeed. A missing, unreadable or undecodable
    /// record is a miss; the caller simulates and [`store`](Self::store)s
    /// over it.
    pub fn lookup<T>(&self, key: &Key, decode: impl FnOnce(&str) -> Option<T>) -> Option<T> {
        let found = std::fs::read_to_string(self.entry_path(key))
            .ok()
            .and_then(|blob| decode(&blob));
        if found.is_some() {
            self.hits.fetch_add(1, Ordering::Relaxed);
            metrics::count(Metric::ResultCacheHits);
            metrics::count_global(Metric::CacheColdHits, 1);
        } else {
            self.misses.fetch_add(1, Ordering::Relaxed);
            metrics::count(Metric::ResultCacheMisses);
            metrics::count_global(Metric::CacheColdMisses, 1);
        }
        found
    }

    /// Stores `blob` under `key`, replacing any previous record.
    pub fn store(&self, key: &Key, blob: &str) -> io::Result<()> {
        let path = self.entry_path(key);
        let shard = path.parent().expect("entry path has a shard directory");
        std::fs::create_dir_all(shard)?;
        // Atomic store: the write lands in a unique temp file first and
        // is renamed into place, so concurrent sweep workers computing
        // the same point never observe a torn entry.
        static TMP_SEQ: AtomicU64 = AtomicU64::new(0);
        let tmp = shard.join(format!(
            ".tmp-{}-{}",
            std::process::id(),
            TMP_SEQ.fetch_add(1, Ordering::Relaxed)
        ));
        std::fs::write(&tmp, blob)?;
        if let Err(e) = std::fs::rename(&tmp, &path) {
            let _ = std::fs::remove_file(&tmp);
            return Err(e);
        }
        self.stores.fetch_add(1, Ordering::Relaxed);
        metrics::count(Metric::ResultCacheWrites);
        metrics::count_global(Metric::CacheColdStores, 1);
        Ok(())
    }

    /// Whether `key` has a record, without touching the counters (daemon
    /// probes and the degraded cache-only admission check).
    pub fn contains(&self, key: &Key) -> bool {
        self.probe(key).is_some()
    }

    /// `key`'s record size in bytes, or `None` when it has no record.
    pub fn probe(&self, key: &Key) -> Option<u64> {
        std::fs::metadata(self.entry_path(key)).ok().map(|m| m.len())
    }

    /// Deletes every record, returning how many were removed.
    pub fn purge(&self) -> io::Result<usize> {
        let mut removed = 0;
        self.for_each_record(|path| {
            std::fs::remove_file(path)?;
            removed += 1;
            Ok(())
        })?;
        Ok(removed)
    }

    /// Counts the records on disk and their bytes by walking the shard
    /// directories. Costs one `stat` per record, so only the `inspect`
    /// report calls it.
    pub fn footprint(&self) -> io::Result<Footprint> {
        let mut fp = Footprint::default();
        self.for_each_record(|path| {
            fp.entries += 1;
            fp.bytes += std::fs::metadata(path)?.len();
            Ok(())
        })?;
        Ok(fp)
    }

    /// Snapshots the counters.
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            stores: self.stores.load(Ordering::Relaxed),
        }
    }

    /// Zeroes the counters (the records stay).
    pub fn reset_stats(&self) {
        self.hits.store(0, Ordering::Relaxed);
        self.misses.store(0, Ordering::Relaxed);
        self.stores.store(0, Ordering::Relaxed);
    }

    /// Calls `f` on every `.run` file under the shard directories; a
    /// missing root holds no records.
    fn for_each_record(&self, mut f: impl FnMut(&Path) -> io::Result<()>) -> io::Result<()> {
        let shards = match std::fs::read_dir(&self.dir) {
            Ok(s) => s,
            Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(()),
            Err(e) => return Err(e),
        };
        for shard in shards {
            let shard = shard?.path();
            if !shard.is_dir() {
                continue;
            }
            for entry in std::fs::read_dir(&shard)? {
                let path = entry?.path();
                if path.extension().is_some_and(|e| e == "run") {
                    f(&path)?;
                }
            }
        }
        Ok(())
    }
}

/// The process-wide store over [`dir`], latched at first use
/// (`RunRequest::run_cached`, the daemon's probe/inspect paths, and the
/// harness host block all share it).
pub fn shared() -> &'static ResultCache {
    static SHARED: OnceLock<ResultCache> = OnceLock::new();
    SHARED.get_or_init(|| ResultCache::at(dir()))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key_of(parts: &[&str]) -> Key {
        let mut d = Digest::new("test-v1");
        for p in parts {
            d.str(p);
        }
        d.finish()
    }

    fn scratch(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("nsc-cache-{}-{name}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn text(blob: &str) -> Option<String> {
        Some(blob.to_owned())
    }

    #[test]
    fn digest_is_stable_and_field_sensitive() {
        assert_eq!(key_of(&["a", "b"]), key_of(&["a", "b"]));
        assert_ne!(key_of(&["a", "b"]), key_of(&["a", "c"]));
        // Length prefixing: shifting bytes across a field boundary must
        // change the key.
        assert_ne!(key_of(&["ab", "c"]), key_of(&["a", "bc"]));
        assert_ne!(key_of(&[""]), key_of(&[]));
    }

    #[test]
    fn digest_schema_bump_invalidates() {
        let mut v1 = Digest::new("v1");
        v1.u64(7);
        let mut v2 = Digest::new("v2");
        v2.u64(7);
        assert_ne!(v1.finish(), v2.finish());
    }

    #[test]
    fn digest_f64_bit_pattern() {
        let mut a = Digest::new("v");
        a.f64(0.0);
        let mut b = Digest::new("v");
        b.f64(-0.0);
        assert_ne!(a.finish(), b.finish());
    }

    #[test]
    fn key_hex_roundtrips() {
        let k = key_of(&["x"]);
        assert_eq!(k.hex().len(), 32);
        assert_eq!(k.to_string(), k.hex());
        assert_eq!(Key::parse_hex(&k.hex()), Some(k));
        assert_eq!(((k.hi() as u128) << 64) | k.lo() as u128, {
            u128::from_str_radix(&k.hex(), 16).unwrap()
        });
        assert_eq!(Key::parse_hex("zz"), None);
        assert_eq!(Key::parse_hex(&"f".repeat(31)), None);
        assert_eq!(Key::parse_hex(&"g".repeat(32)), None);
    }

    #[test]
    fn store_lookup_purge_roundtrip() {
        let dir = scratch("roundtrip");
        let store = ResultCache::at(dir.clone());
        let key = key_of(&["roundtrip"]);
        assert_eq!(store.lookup(&key, text), None);
        assert!(!store.contains(&key));
        store.store(&key, "blob=1\n").unwrap();
        assert_eq!(store.lookup(&key, text).as_deref(), Some("blob=1\n"));
        assert!(store.contains(&key));
        assert_eq!(store.probe(&key), Some(7));
        assert_eq!(store.stats(), CacheStats { hits: 1, misses: 1, stores: 1 });
        assert_eq!(store.purge().unwrap(), 1);
        assert_eq!(store.lookup(&key, text), None);
        assert_eq!(store.probe(&key), None);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn undecodable_record_is_a_miss() {
        let dir = scratch("undecodable");
        let store = ResultCache::at(dir.clone());
        let key = key_of(&["undecodable"]);
        store.store(&key, "garbage").unwrap();
        assert_eq!(store.lookup(&key, |_| None::<String>), None);
        // Not UTF-8 at all (e.g. a binary-framed record): also a miss.
        std::fs::write(store.entry_path(&key), [0x4e, 0xff, 0x00]).unwrap();
        assert_eq!(store.lookup(&key, text), None);
        assert_eq!(store.stats(), CacheStats { hits: 0, misses: 2, stores: 1 });
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn stats_reset_keeps_occupancy() {
        let dir = scratch("reset");
        let store = ResultCache::at(dir.clone());
        let key = key_of(&["reset"]);
        store.store(&key, "v=1\n").unwrap();
        let _ = store.lookup(&key, text);
        store.reset_stats();
        assert_eq!(store.stats(), CacheStats::default());
        assert_eq!(
            store.footprint().unwrap(),
            Footprint { entries: 1, bytes: 4 },
            "reset must not drop records"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn footprint_ignores_temp_files_and_a_missing_root() {
        let dir = scratch("footprint");
        let store = ResultCache::at(dir.clone());
        assert_eq!(store.footprint().unwrap(), Footprint::default());
        assert_eq!(store.purge().unwrap(), 0);
        let key = key_of(&["fp"]);
        store.store(&key, "abc").unwrap();
        let shard = store.entry_path(&key).parent().unwrap().to_path_buf();
        std::fs::write(shard.join(".tmp-1-1"), "partial").unwrap();
        assert_eq!(store.footprint().unwrap(), Footprint { entries: 1, bytes: 3 });
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn disable_override_wins() {
        set_disabled(true);
        assert!(!enabled());
        set_disabled(false);
    }
}
