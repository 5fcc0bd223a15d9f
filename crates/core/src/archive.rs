//! Archiving (requirement *(iv)*): "mechanisms for archiving the results of
//! the evaluations as well as of all parameter settings which have led to
//! these results."
//!
//! A project archive is a single zip bundle containing every setting and
//! every result: the project document, each experiment with its parameter
//! assignments, each evaluation with its jobs (state, parameters, log,
//! timeline) and each job's result JSON + uploaded zip, plus a manifest
//! with SHA-256 fingerprints so archives are verifiable years later.

use chronos_api::WireEncode;
use chronos_json::{obj, Value};
use chronos_util::encode::{hex_encode, sha256};
use chronos_util::Id;
use chronos_zip::ZipWriter;

use crate::control::ChronosControl;
use crate::error::CoreResult;

/// Archives a whole project into a zip bundle.
pub fn archive_project(control: &ChronosControl, project_id: Id) -> CoreResult<Vec<u8>> {
    let project = control.get_project(project_id)?;
    let mut zip = ZipWriter::new();
    let mut manifest_entries: Vec<Value> = Vec::new();
    let mut add = |zip: &mut ZipWriter, name: String, bytes: &[u8]| -> CoreResult<()> {
        zip.add_file(&name, bytes)?;
        manifest_entries.push(obj! {
            "path" => name,
            "bytes" => bytes.len(),
            "sha256" => hex_encode(&sha256(bytes)),
        });
        Ok(())
    };

    add(&mut zip, "project.json".into(), project.to_value().to_pretty_string().as_bytes())?;

    for experiment in control.list_experiments(Some(project_id)) {
        let exp_dir = format!("experiments/{}", experiment.id);
        add(
            &mut zip,
            format!("{exp_dir}/experiment.json"),
            experiment.to_value().to_pretty_string().as_bytes(),
        )?;
        // The system definition the experiment ran against is part of the
        // settings that produced the results.
        if let Ok(system) = control.get_system(experiment.system_id) {
            add(
                &mut zip,
                format!("{exp_dir}/system.json"),
                system.to_value().to_pretty_string().as_bytes(),
            )?;
        }
        for evaluation in control.list_evaluations(Some(experiment.id)) {
            let eval_dir = format!("{exp_dir}/evaluations/{}", evaluation.id);
            add(
                &mut zip,
                format!("{eval_dir}/evaluation.json"),
                evaluation.to_value().to_pretty_string().as_bytes(),
            )?;
            for job in control.list_jobs(evaluation.id)? {
                let job_dir = format!("{eval_dir}/jobs/{}", job.id);
                add(
                    &mut zip,
                    format!("{job_dir}/job.json"),
                    job.to_value().to_pretty_string().as_bytes(),
                )?;
                if !job.log.is_empty() {
                    add(&mut zip, format!("{job_dir}/log.txt"), job.log.as_bytes())?;
                }
                if let Some(result) = control.result_for_job(job.id)? {
                    add(
                        &mut zip,
                        format!("{job_dir}/result.json"),
                        result.data.to_pretty_string().as_bytes(),
                    )?;
                    if !result.archive.is_empty() {
                        add(&mut zip, format!("{job_dir}/result.zip"), &result.archive)?;
                    }
                }
            }
        }
    }

    let manifest = obj! {
        "archive_format" => 1,
        "project_id" => project_id.to_base32(),
        "project_name" => project.name.as_str(),
        "created_at" => control.now(),
        "entries" => Value::Array(manifest_entries),
    };
    zip.add_file("manifest.json", manifest.to_pretty_string().as_bytes())?;
    Ok(zip.finish())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::auth::Role;
    use crate::params::{ParamAssignments, ParamDef, ParamType};
    use chronos_zip::ZipArchive;

    fn populated_control() -> (ChronosControl, Id) {
        let control = ChronosControl::in_memory();
        let system = control
            .register_system(
                "sut",
                "",
                vec![ParamDef::new(
                    "threads",
                    "",
                    ParamType::Interval { min: 1, max: 4, step: 1 },
                    Value::from(1),
                )
                .unwrap()],
                vec![],
            )
            .unwrap();
        let deployment = control.create_deployment(system.id, "n", "1").unwrap();
        let owner = control.create_user("ada", "pw", Role::Member).unwrap();
        let project = control.create_project("demo", "archive me", owner.id).unwrap();
        let experiment = control
            .create_experiment(
                project.id,
                system.id,
                "e1",
                "",
                ParamAssignments::new().sweep("threads", vec![Value::from(1), Value::from(2)]),
            )
            .unwrap();
        control.create_evaluation(experiment.id).unwrap();
        // Run one job to completion so the archive has a result.
        let job = control.claim_next_job(deployment.id, None).unwrap().unwrap();
        control.append_log(job.id, "did some work").unwrap();
        control
            .finish_job(
                job.id,
                obj! {"throughput_ops_per_sec" => 42.0},
                b"inner-zip".to_vec(),
                None,
                None,
            )
            .unwrap();
        (control, project.id)
    }

    #[test]
    fn archive_contains_settings_and_results() {
        let (control, project_id) = populated_control();
        let bytes = archive_project(&control, project_id).unwrap();
        let archive = ZipArchive::parse(&bytes).unwrap();
        let names = archive.names();
        assert!(names.contains(&"project.json"));
        assert!(names.contains(&"manifest.json"));
        assert!(names.iter().any(|n| n.ends_with("/experiment.json")));
        assert!(names.iter().any(|n| n.ends_with("/system.json")));
        assert!(names.iter().any(|n| n.ends_with("/evaluation.json")));
        assert!(names.iter().any(|n| n.ends_with("/job.json")));
        assert!(names.iter().any(|n| n.ends_with("/log.txt")));
        assert!(names.iter().any(|n| n.ends_with("/result.json")));
        assert!(names.iter().any(|n| n.ends_with("/result.zip")));
    }

    #[test]
    fn manifest_fingerprints_are_correct() {
        let (control, project_id) = populated_control();
        let bytes = archive_project(&control, project_id).unwrap();
        let archive = ZipArchive::parse(&bytes).unwrap();
        let manifest = chronos_json::parse(
            &String::from_utf8(archive.read("manifest.json").unwrap()).unwrap(),
        )
        .unwrap();
        let entries = manifest.get("entries").and_then(Value::as_array).unwrap();
        assert!(!entries.is_empty());
        for entry in entries {
            let path = entry.get("path").and_then(Value::as_str).unwrap();
            let expected = entry.get("sha256").and_then(Value::as_str).unwrap();
            let data = archive.read(path).unwrap();
            assert_eq!(hex_encode(&sha256(&data)), expected, "fingerprint of {path}");
        }
    }

    #[test]
    fn archived_result_payload_roundtrips() {
        let (control, project_id) = populated_control();
        let bytes = archive_project(&control, project_id).unwrap();
        let archive = ZipArchive::parse(&bytes).unwrap();
        let result_zip = archive
            .names()
            .iter()
            .find(|n| n.ends_with("/result.zip"))
            .map(|n| n.to_string())
            .unwrap();
        assert_eq!(archive.read(&result_zip).unwrap(), b"inner-zip");
    }

    #[test]
    fn missing_project_errors() {
        let control = ChronosControl::in_memory();
        assert!(archive_project(&control, Id::generate()).is_err());
    }
}
