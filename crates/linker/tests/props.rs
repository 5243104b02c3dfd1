//! Property-based tests for the DLR-enabled dynamic linker.

use std::sync::Arc;

use proptest::prelude::*;

use cycada_linker::{DynamicLinker, LibraryImage};

/// Builds a linear dependency chain `lib0 <- lib1 <- ... <- libN`.
fn chain_linker(depth: usize) -> DynamicLinker {
    let linker = DynamicLinker::new();
    for i in 0..depth {
        let mut builder = LibraryImage::builder(format!("lib{i}.so"))
            .symbols([format!("fn{i}")])
            .constructor(move || Arc::new(i));
        if i > 0 {
            builder = builder.deps([format!("lib{}.so", i - 1)]);
        }
        linker.register_image(builder.build());
    }
    linker
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn dlopen_runs_each_constructor_once(depth in 1usize..12) {
        let linker = chain_linker(depth);
        let top = format!("lib{}.so", depth - 1);
        linker.dlopen(&top).unwrap();
        linker.dlopen(&top).unwrap();
        for i in 0..depth {
            prop_assert_eq!(linker.constructor_runs(&format!("lib{i}.so")), 1);
        }
    }

    #[test]
    fn dlforce_runs_every_constructor_once_more(depth in 1usize..10, replicas in 1usize..4) {
        let linker = chain_linker(depth);
        let top = format!("lib{}.so", depth - 1);
        linker.dlopen(&top).unwrap();
        for _ in 0..replicas {
            linker.dlforce(&top).unwrap();
        }
        for i in 0..depth {
            prop_assert_eq!(
                linker.constructor_runs(&format!("lib{i}.so")),
                1 + replicas as u64,
                "lib{}",
                i
            );
        }
        prop_assert_eq!(linker.replica_count(), replicas);
    }

    #[test]
    fn replicas_have_globally_unique_instances_and_addresses(depth in 1usize..8) {
        let linker = chain_linker(depth);
        let top = format!("lib{}.so", depth - 1);
        let shared = linker.dlopen(&top).unwrap();
        let r1 = linker.dlforce(&top).unwrap();
        let r2 = linker.dlforce(&top).unwrap();

        let mut instances = std::collections::HashSet::new();
        let mut bases = std::collections::HashSet::new();
        for tree_root in [&shared, r1.root(), r2.root()] {
            for lib in tree_root.tree() {
                prop_assert!(instances.insert(lib.instance_id()), "duplicate instance");
                prop_assert!(bases.insert(lib.base_va()), "duplicate base address");
            }
        }
    }

    #[test]
    fn symbols_resolve_through_the_whole_chain(depth in 1usize..12) {
        let linker = chain_linker(depth);
        let top = linker.dlopen(&format!("lib{}.so", depth - 1)).unwrap();
        for i in 0..depth {
            let sym = top.symbol(&format!("fn{i}"));
            prop_assert!(sym.is_some(), "fn{i} should resolve transitively");
        }
        prop_assert!(top.symbol("missing").is_none());
    }

    #[test]
    fn replica_symbol_addresses_differ_from_shared(depth in 1usize..8) {
        let linker = chain_linker(depth);
        let top_name = format!("lib{}.so", depth - 1);
        let shared = linker.dlopen(&top_name).unwrap();
        let replica = linker.dlforce(&top_name).unwrap();
        for i in 0..depth {
            let name = format!("fn{i}");
            let a = shared.symbol(&name).unwrap();
            let b = replica.dlsym(&name).unwrap();
            prop_assert_ne!(a.va, b.va, "{} must relocate", name);
        }
    }

    #[test]
    fn dlclose_unloads_at_zero_refs(opens in 1usize..8) {
        let linker = chain_linker(1);
        for _ in 0..opens {
            linker.dlopen("lib0.so").unwrap();
        }
        for i in 0..opens {
            let unloaded = linker.dlclose("lib0.so");
            prop_assert_eq!(unloaded, i == opens - 1);
        }
        prop_assert!(!linker.is_loaded("lib0.so"));
    }
}
