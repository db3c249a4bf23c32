//! Golden-fixture conformance: every pinned scenario regenerates its
//! report and compares it against the committed `golden/*.json` fixture.
//!
//! One `#[test]` per scenario so a drift names the scenario in the test
//! listing as well as in the mismatch paths. Regenerate intentionally with
//! `UPDATE_GOLDEN=1 cargo test -p conformance` and commit the diff.

use conformance::{all_scenarios, check_golden, golden_dir};

fn check(name: &str) {
    let scenario = all_scenarios()
        .into_iter()
        .find(|s| s.name == name)
        .unwrap_or_else(|| panic!("scenario {name} is not registered"));
    check_golden(name, &scenario.run());
}

#[test]
fn toy_explainable() {
    check("toy_explainable");
}

#[test]
fn toy_grid() {
    check("toy_grid");
}

#[test]
fn toy_random() {
    check("toy_random");
}

#[test]
fn toy_annealing() {
    check("toy_annealing");
}

#[test]
fn toy_genetic() {
    check("toy_genetic");
}

#[test]
fn toy_bayesian() {
    check("toy_bayesian");
}

#[test]
fn toy_hypermapper() {
    check("toy_hypermapper");
}

#[test]
fn toy_rl() {
    check("toy_rl");
}

#[test]
fn edge_explainable_resnet18() {
    check("edge_explainable_resnet18");
}

#[test]
fn edge_random_resnet18() {
    check("edge_random_resnet18");
}

#[test]
fn edge_bayesian_resnet18_b130() {
    check("edge_bayesian_resnet18_b130");
}

#[test]
fn edge_hypermapper_resnet18_b130() {
    check("edge_hypermapper_resnet18_b130");
}

/// Every registered scenario has a test above — adding a scenario without
/// pinning it is itself a failure.
#[test]
fn every_scenario_is_pinned() {
    assert_eq!(all_scenarios().len(), 12, "add a #[test] for new scenarios");
}

/// Every committed fixture corresponds to a registered scenario, so a
/// renamed scenario can't silently orphan (and thus unpin) its fixture.
#[test]
fn no_orphaned_fixtures() {
    let names: Vec<String> = all_scenarios()
        .iter()
        .map(|s| format!("{}.json", s.name))
        .collect();
    for entry in std::fs::read_dir(golden_dir()).expect("golden dir is committed") {
        let file = entry.unwrap().file_name().into_string().unwrap();
        assert!(
            names.iter().any(|n| n == &file),
            "golden/{file} has no registered scenario — remove it or register one"
        );
    }
}
