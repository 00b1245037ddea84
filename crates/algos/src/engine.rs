//! The engine contract every algorithm is written against, and the runtime
//! sweep over frameworks.
//!
//! [`Engine`] is defined once, in `mixen-core` beside [`MixenEngine`], and
//! implemented there and by every baseline; it is re-exported here so
//! algorithm code never mentions a concrete framework. [`EngineKind`]
//! enumerates the frameworks for drivers that sweep "all frameworks × all
//! algorithms", and [`AnyEngine`] holds any one of them.

use mixen_baselines::{BlockEngine, PartitionedEngine, PullEngine, PushEngine};
pub use mixen_core::Engine;
use mixen_core::{MixenEngine, MixenOpts};
use mixen_graph::{AtomicProp, Graph, NodeId};

/// The five frameworks of the paper's Table 3 (plus the serial oracle),
/// named as the paper names them.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum EngineKind {
    /// This paper's framework.
    Mixen,
    /// GPOP-style whole-graph blocking.
    Gpop,
    /// Ligra-style push with atomics.
    Ligra,
    /// Polymer-style destination-partitioned pull.
    Polymer,
    /// GraphMat-style dense pull.
    GraphMat,
}

impl EngineKind {
    /// Table-order list (Mixen first, as in Table 3).
    pub const ALL: [EngineKind; 5] = [
        EngineKind::Mixen,
        EngineKind::Gpop,
        EngineKind::Ligra,
        EngineKind::Polymer,
        EngineKind::GraphMat,
    ];

    /// The display name used in the paper's tables.
    pub fn name(self) -> &'static str {
        match self {
            EngineKind::Mixen => "Mixen",
            EngineKind::Gpop => "GPOP",
            EngineKind::Ligra => "Ligra",
            EngineKind::Polymer => "Polymer",
            EngineKind::GraphMat => "GraphMat",
        }
    }

    /// The kind whose lower-cased [`EngineKind::name`] is `s` (the CLI's
    /// `--engine` spelling: `mixen`, `gpop`, `ligra`, `polymer`,
    /// `graphmat`).
    pub fn parse(s: &str) -> Option<EngineKind> {
        EngineKind::ALL
            .into_iter()
            .find(|k| k.name().to_ascii_lowercase() == s)
    }
}

/// A uniformly-typed engine, for drivers that sweep frameworks at runtime
/// (the Table 3 harness). Construction runs the framework's preprocessing.
/// Mixen's preprocessed state is boxed so the enum stays pointer-sized per
/// variant.
pub enum AnyEngine<'g> {
    /// This paper's framework.
    Mixen(Box<MixenEngine>),
    /// GPOP-style whole-graph blocking.
    Gpop(BlockEngine<'g>),
    /// Ligra-style push with atomics.
    Ligra(PushEngine<'g>),
    /// Polymer-style partitioned pull.
    Polymer(PartitionedEngine<'g>),
    /// GraphMat-style dense pull.
    GraphMat(PullEngine<'g>),
}

impl<'g> AnyEngine<'g> {
    /// Builds the engine of `kind` over `g` with each framework's default
    /// configuration (GPOP: 64 Ki-node blocks; Polymer: the pool's part
    /// count). `mixen` configures the Mixen engine only: the baselines have
    /// no relabel step or bin encoding, so callers that must reject the
    /// combination do so before building.
    pub fn build(kind: EngineKind, g: &'g Graph, mixen: MixenOpts) -> Self {
        match kind {
            EngineKind::Mixen => AnyEngine::Mixen(Box::new(MixenEngine::new(g, mixen))),
            EngineKind::Gpop => AnyEngine::Gpop(BlockEngine::with_default_blocks(g)),
            EngineKind::Ligra => AnyEngine::Ligra(PushEngine::new(g)),
            EngineKind::Polymer => {
                AnyEngine::Polymer(PartitionedEngine::with_default_partitions(g))
            }
            EngineKind::GraphMat => AnyEngine::GraphMat(PullEngine::new(g)),
        }
    }
}

macro_rules! any_dispatch {
    ($self:expr, $e:ident => $body:expr) => {
        match $self {
            AnyEngine::Mixen($e) => $body,
            AnyEngine::Gpop($e) => $body,
            AnyEngine::Ligra($e) => $body,
            AnyEngine::Polymer($e) => $body,
            AnyEngine::GraphMat($e) => $body,
        }
    };
}

impl Engine for AnyEngine<'_> {
    fn run<V, FI, FA>(&self, init: FI, apply: FA, iters: usize, tol: Option<f64>) -> (Vec<V>, usize)
    where
        V: AtomicProp,
        FI: Fn(NodeId) -> V + Sync,
        FA: Fn(NodeId, V) -> V + Sync,
    {
        any_dispatch!(self, e => e.run(init, apply, iters, tol))
    }

    fn bfs(&self, root: NodeId) -> Vec<i32> {
        any_dispatch!(self, e => e.bfs(root))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mixen_baselines::ReferenceEngine;

    fn toy() -> Graph {
        Graph::from_pairs(5, &[(0, 1), (1, 2), (2, 0), (3, 1), (2, 4)])
    }

    /// Exercise each implementation through the trait to prove the
    /// delegation compiles and agrees.
    fn run_engine<E: Engine>(e: &E) -> (Vec<f32>, Vec<i32>) {
        let vals = Engine::iterate::<f32, _, _>(e, |_| 1.0, |_, s| s + 1.0, 2);
        let depths = Engine::bfs(e, 0);
        (vals, depths)
    }

    #[test]
    fn all_engines_agree_through_trait() {
        let g = toy();
        let reference = run_engine(&ReferenceEngine::new(&g));
        let mixen = run_engine(&MixenEngine::new(&g, MixenOpts::default()));
        let pull = run_engine(&PullEngine::new(&g));
        let push = run_engine(&PushEngine::new(&g));
        let part = run_engine(&PartitionedEngine::new(&g, 2));
        let block = run_engine(&BlockEngine::new(&g, 2));
        for (name, got) in [
            ("mixen", &mixen),
            ("pull", &pull),
            ("push", &push),
            ("polymer", &part),
            ("gpop", &block),
        ] {
            for (a, b) in got.0.iter().zip(&reference.0) {
                assert!((a - b).abs() < 1e-4, "{name} values diverge");
            }
            assert_eq!(got.1, reference.1, "{name} BFS diverges");
        }
    }

    #[test]
    fn kind_names() {
        assert_eq!(EngineKind::Mixen.name(), "Mixen");
        assert_eq!(EngineKind::ALL.len(), 5);
    }

    #[test]
    fn parse_takes_the_lower_cased_names_only() {
        for kind in EngineKind::ALL {
            assert_eq!(
                EngineKind::parse(&kind.name().to_ascii_lowercase()),
                Some(kind)
            );
        }
        assert_eq!(EngineKind::parse("graphmat"), Some(EngineKind::GraphMat));
        for other in ["GPOP", "Mixen", "pull", ""] {
            assert_eq!(EngineKind::parse(other), None, "{other}");
        }
    }

    #[test]
    fn mixen_opts_build_honors_the_ordering() {
        use mixen_core::RegularOrdering;
        let g = toy();
        let opts = MixenOpts {
            ordering: RegularOrdering::Dbg,
            ..MixenOpts::default()
        };
        let e = AnyEngine::build(EngineKind::Mixen, &g, opts);
        match &e {
            AnyEngine::Mixen(m) => assert_eq!(m.filtered().ordering(), RegularOrdering::Dbg),
            _ => panic!("expected a Mixen engine"),
        }
        let reference = run_engine(&ReferenceEngine::new(&g));
        let got = run_engine(&e);
        for (a, b) in got.0.iter().zip(&reference.0) {
            assert!((a - b).abs() < 1e-4, "reordered mixen diverges");
        }
    }

    #[test]
    fn any_engine_dispatches_every_kind() {
        let g = toy();
        let reference = run_engine(&ReferenceEngine::new(&g));
        for kind in EngineKind::ALL {
            let e = AnyEngine::build(kind, &g, MixenOpts::default());
            let got = run_engine(&e);
            for (a, b) in got.0.iter().zip(&reference.0) {
                assert!((a - b).abs() < 1e-4, "{} diverges", kind.name());
            }
            assert_eq!(got.1, reference.1, "{} BFS diverges", kind.name());
        }
    }
}
