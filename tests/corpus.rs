//! Replays the checked-in regression corpus under `tests/corpus/` on
//! every test run. Each file is a canonical spec XML whose expected
//! verdict is encoded in its filename (`feasible__*` / `infeasible__*`);
//! a behaviour change in the parser, the digest, the search, the
//! simulator or the disk-cache revival shows up here as a corpus
//! divergence before it ships.

use ezrealtime::artifacts::{codec, compute_outcome, project_digest, render, ArtifactKind};
use ezrealtime::core::Project;
use ezrealtime::scheduler::{SchedulerConfig, SynthesizeError};

#[test]
fn checked_in_corpus_replays_with_the_recorded_verdicts() {
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/corpus");
    let mut entries: Vec<_> = std::fs::read_dir(&dir)
        .expect("tests/corpus exists")
        .map(|e| e.expect("readable dir entry").path())
        .filter(|p| p.extension().is_some_and(|ext| ext == "xml"))
        .collect();
    entries.sort();
    assert!(
        entries.len() >= 8,
        "corpus shrank to {} files — regenerate, don't delete",
        entries.len()
    );

    let config = SchedulerConfig {
        max_states: 200_000,
        ..SchedulerConfig::default()
    };
    for path in entries {
        let name = path.file_stem().unwrap().to_string_lossy().into_owned();
        let expect_feasible = match name.split_once("__") {
            Some(("feasible", _)) => true,
            Some(("infeasible", _)) => false,
            _ => panic!("{name}: corpus files are named <verdict>__<label>.xml"),
        };
        let xml = std::fs::read_to_string(&path).expect("corpus file reads");

        // The stored document is canonical: print → parse is a fixed
        // point and the digest survives the trip.
        let project = Project::from_dsl(&xml)
            .unwrap_or_else(|e| panic!("{name}: no longer parses: {e}"))
            .with_config(config.clone());
        let reprinted = project.to_dsl();
        assert_eq!(reprinted, xml, "{name}: reprint is not byte-identical");
        let reparsed = Project::from_dsl(&reprinted).expect("own reprint parses");
        assert_eq!(
            project_digest(&project),
            project_digest(&reparsed.with_config(config.clone())),
            "{name}: digest moved across the roundtrip"
        );

        // The recorded verdict still holds, feasible schedules still
        // satisfy the net-semantics oracle, and a feasible outcome
        // revived from its cache file renders every artifact the same
        // bytes as the fresh one: the fresh solution derived its
        // timeline and table eagerly, the decoded one derives them on
        // first render from the net its replay gate translated.
        match project.synthesize() {
            Ok(outcome) => {
                assert!(expect_feasible, "{name}: recorded infeasible, now feasible");
                let violations = outcome.solution.validate();
                assert!(violations.is_empty(), "{name}: {violations:?}");
                ezrealtime::sim::replay::replay(
                    outcome.solution.tasknet(),
                    outcome.solution.schedule(),
                )
                .unwrap_or_else(|e| panic!("{name}: oracle rejects schedule: {e}"));

                let fresh = compute_outcome(&project, project_digest(&project));
                let revived = codec::decode_file(&codec::encode_file(&fresh))
                    .unwrap_or_else(|e| panic!("{name}: cache file does not decode: {e}"));
                for kind in ArtifactKind::ALL {
                    assert_eq!(
                        render(&revived, kind).map(|a| a.text),
                        render(&fresh, kind).map(|a| a.text),
                        "{name}: revived {kind} differs from the fresh one"
                    );
                }
            }
            Err(SynthesizeError::Infeasible { .. }) => {
                assert!(
                    !expect_feasible,
                    "{name}: recorded feasible, now infeasible"
                );
            }
            Err(e) => panic!("{name}: search fell off a budget cliff: {e}"),
        }
    }
}
