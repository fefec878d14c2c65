//! The 14 evaluation workloads of the near-stream computing paper
//! (Table VI), written in the `nsc-ir` loop-nest IR with deterministic
//! input generators.
//!
//! | Workload | Pattern (Table VI) | Source suite |
//! |---|---|---|
//! | pathfinder, srad, hotspot, hotspot3D | multi-operand store | Rodinia |
//! | histogram | affine load | — |
//! | scluster, svm | indirect load | Rodinia / MineBench |
//! | bfs_push, pr_push, sssp | indirect atomic | GAP |
//! | bfs_pull, pr_pull | indirect reduce | GAP |
//! | bin_tree, hash_join | pointer-chase reduce | — |
//!
//! # Examples
//!
//! ```
//! use nsc_workloads::{histogram, Size};
//!
//! let w = histogram(Size::Tiny);
//! let mut mem = w.fresh_memory();
//! nsc_ir::interp::run_program(&w.program, &mut mem, &w.params);
//! assert_ne!(w.digest(&mem), 0, "histogram produced counts");
//! ```

pub mod data;
pub mod graph;
pub mod mine;
pub mod pointer;
pub mod rodinia;

use nsc_ir::program::ArrayId;
use nsc_ir::types::Scalar;
use nsc_ir::{Memory, Program};

pub use graph::{bfs_pull, bfs_push, pr_pull, pr_push, sssp};
pub use mine::{histogram, scluster, svm};
pub use pointer::{bin_tree, hash_join};
pub use rodinia::{hotspot, hotspot3d, pathfinder, srad};

/// Input scale selector.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Size {
    /// A few thousand elements: unit/integration tests.
    Tiny,
    /// Roughly 1/16 of the paper's Table VI inputs: default for harnesses.
    Small,
    /// The paper's Table VI parameters.
    Paper,
}

impl Size {
    /// Scales a paper-sized element count.
    pub fn scale(self, paper: u64) -> u64 {
        match self {
            Size::Tiny => (paper / 256).max(1024).min(paper),
            Size::Small => (paper / 16).max(4096).min(paper),
            Size::Paper => paper,
        }
    }

    /// Scales an iteration count (kept closer to the paper's).
    pub fn iters(self, paper: u64) -> u64 {
        match self {
            Size::Tiny => paper.min(2),
            Size::Small => paper.min(4),
            Size::Paper => paper,
        }
    }
}

/// The address/compute category of a workload (Table VI "Addr. Cmp").
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Category {
    /// Multi-operand affine store.
    MultiOpStore,
    /// Affine load (with key-extraction compute).
    AffineLoad,
    /// Indirect load.
    IndirectLoad,
    /// Indirect atomic.
    IndirectAtomic,
    /// Indirect reduction.
    IndirectReduce,
    /// Pointer-chasing reduction.
    PointerReduce,
}

impl Category {
    /// Table VI label.
    pub fn label(self) -> &'static str {
        match self {
            Category::MultiOpStore => "MO. Store",
            Category::AffineLoad => "Aff. Load",
            Category::IndirectLoad => "Ind. Load",
            Category::IndirectAtomic => "Ind. Atomic",
            Category::IndirectReduce => "Ind. Reduce",
            Category::PointerReduce => "Ptr. Reduce",
        }
    }
}

/// A ready-to-simulate workload: program, inputs and validation digest.
pub struct Workload {
    /// Table VI name.
    pub name: &'static str,
    /// Taxonomy category.
    pub category: Category,
    /// The IR program.
    pub program: Program,
    /// Runtime parameters.
    pub params: Vec<Scalar>,
    /// Populates input arrays (deterministic).
    pub init: Box<dyn Fn(&mut Memory) + Send + Sync>,
    /// Arrays whose final contents constitute the result (digested for
    /// cross-mode validation).
    pub output_arrays: Vec<ArrayId>,
}

impl std::fmt::Debug for Workload {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Workload")
            .field("name", &self.name)
            .field("category", &self.category)
            .finish()
    }
}

impl Workload {
    /// Allocates and initializes a fresh memory image.
    pub fn fresh_memory(&self) -> Memory {
        let mut mem = Memory::for_program(&self.program);
        (self.init)(&mut mem);
        mem
    }

    /// Order-insensitive digest of the output arrays (for comparing
    /// executions across modes; commutative over elements so that
    /// differently-interleaved but equivalent runs match).
    pub fn digest(&self, mem: &Memory) -> u64 {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for &arr in &self.output_arrays {
            let len = mem.len_of(arr);
            let elem = mem.elem_of(arr);
            for i in 0..len {
                let bits = match elem {
                    nsc_ir::ElemType::Record(_) => continue,
                    t if t.is_float() => {
                        let v = mem.read_index(arr, i).as_f64();
                        // Quantize to tolerate last-ulp variation.
                        (v * 1e6).round() as i64 as u64
                    }
                    _ => mem.read_index(arr, i).as_i64() as u64,
                };
                let e = bits.wrapping_mul(0x100_0000_01b3).rotate_left((i % 61) as u32);
                h = h.wrapping_add(e ^ i.wrapping_mul(0x9E37_79B9_7F4A_7C15));
            }
        }
        h
    }

    /// Golden (sequential functional) digest.
    pub fn golden_digest(&self) -> u64 {
        let mut mem = self.fresh_memory();
        nsc_ir::interp::run_program(&self.program, &mut mem, &self.params);
        self.digest(&mem)
    }
}

/// A workload constructor.
type Build = fn(Size) -> Workload;

/// Every workload's Table VI name and constructor, in the paper's order:
/// the one list behind [`names`], [`by_name`] and [`all`].
const TABLE: [(&str, Build); 14] = [
    ("pathfinder", pathfinder),
    ("srad", srad),
    ("hotspot", hotspot),
    ("hotspot3D", hotspot3d),
    ("histogram", histogram),
    ("scluster", scluster),
    ("svm", svm),
    ("bfs_push", bfs_push),
    ("pr_push", pr_push),
    ("sssp", sssp),
    ("bfs_pull", bfs_pull),
    ("pr_pull", pr_pull),
    ("bin_tree", bin_tree),
    ("hash_join", hash_join),
];

/// Builds the one workload called `name` (a Table VI name, see
/// [`names`]) at the given size, without generating any other
/// workload's inputs. `None` for an unknown name.
pub fn by_name(name: &str, size: Size) -> Option<Workload> {
    TABLE.iter().find(|(n, _)| *n == name).map(|(_, build)| build(size))
}

/// Builds all 14 workloads at the given size, in the paper's Table VI
/// order.
pub fn all(size: Size) -> Vec<Workload> {
    TABLE.iter().map(|(_, build)| build(size)).collect()
}

/// Names of all workloads, in order.
pub fn names() -> [&'static str; 14] {
    TABLE.map(|(name, _)| name)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_fourteen_build_and_validate() {
        let ws = all(Size::Tiny);
        assert_eq!(ws.len(), 14);
        for (w, name) in ws.iter().zip(names()) {
            assert_eq!(w.name, name);
            assert!(w.program.validate().is_ok(), "{name} invalid");
        }
        assert!(by_name("not-a-workload", Size::Tiny).is_none());
    }

    #[test]
    fn golden_digests_are_stable() {
        for w in all(Size::Tiny) {
            let d1 = w.golden_digest();
            let d2 = w.golden_digest();
            assert_eq!(d1, d2, "{} digest unstable", w.name);
            assert_ne!(d1, 0, "{} produced no output", w.name);
        }
    }

    #[test]
    fn size_scaling() {
        assert_eq!(Size::Paper.scale(1 << 20), 1 << 20);
        assert_eq!(Size::Small.scale(1 << 20), 1 << 16);
        assert!(Size::Tiny.scale(1 << 20) <= 1 << 12);
        assert_eq!(Size::Tiny.iters(8), 2);
        assert_eq!(Size::Paper.iters(8), 8);
    }
}
