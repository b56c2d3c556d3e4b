//! Section 9 subsumption (experiment E6): the comparator chain
//! `Ras90-analog ⊆ ZH90-analog ⊆ HH91-analog ⊆ Starling` holds over a
//! generated corpus, and every inclusion is proper somewhere.

use starling::analysis::certifications::Certifications;
use starling::analysis::context::AnalysisContext;
use starling::baselines::compare_all;
use starling::engine::RuleSet;
use starling_fuzz::{generate, GenConfig};

#[test]
fn subsumption_chain_over_random_corpus() {
    let mut accepts = [0usize; 4]; // [starling, hh91, zh90, ras90]
    let mut proper_starling_hh91 = 0usize;
    let mut proper_hh91_zh90 = 0usize;

    for seed in 0..700 {
        // The first 150 programs are dense (rules interact heavily:
        // separates Starling from the priority-blind HH91-analog), the rest
        // sparse (many tables, little interaction: lets the stricter
        // criteria accept something, separating the rest of the chain).
        // HH91 ⊋ ZH90 needs two commuting writers of one table, which about
        // one sparse program in 250 has.
        let case = generate(
            seed,
            &if seed < 150 {
                GenConfig {
                    max_rules: 5,
                    min_rules: 5,
                    max_actions: 1,
                    p_condition: 0.4,
                    p_observable: 0.1,
                    ..GenConfig::CORPUS
                }
            } else {
                GenConfig::SPARSE
            },
        );
        let rules = RuleSet::compile(&case.defs, &case.catalog()).unwrap();
        let ctx = AnalysisContext::from_ruleset(&rules, Certifications::new());
        let row = compare_all(&ctx);
        assert_eq!(
            row.subsumption_violation(),
            None,
            "seed {seed}: {row:?}\n{}",
            case.script()
        );
        accepts[0] += usize::from(row.starling);
        accepts[1] += usize::from(row.hh91);
        accepts[2] += usize::from(row.zh90);
        accepts[3] += usize::from(row.ras90);
        proper_starling_hh91 += usize::from(row.starling && !row.hh91);
        proper_hh91_zh90 += usize::from(row.hh91 && !row.zh90);
    }

    // Monotone acceptance counts down the chain.
    assert!(accepts[0] >= accepts[1], "{accepts:?}");
    assert!(accepts[1] >= accepts[2], "{accepts:?}");
    assert!(accepts[2] >= accepts[3], "{accepts:?}");
    // Inclusions are proper on this corpus.
    assert!(proper_starling_hh91 > 0, "{accepts:?}");
    assert!(proper_hh91_zh90 > 0, "{accepts:?}");
    // And the comparison is not vacuous.
    assert!(accepts[0] > 0, "{accepts:?}");
}
