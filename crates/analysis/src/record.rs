//! Machine-readable experiment records.
//!
//! Every experiment binary writes one [`ExperimentRecord`] as JSON under
//! `target/experiments/`, so EXPERIMENTS.md can be regenerated and results
//! can be diffed across runs. Serialisation goes through the in-repo
//! [`Json`](crate::json::Json) module (the workspace builds offline, without
//! serde).

use crate::json::Json;
use crate::stats::Summary;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};

/// One measured cell of a result table: an algorithm on a graph class with a
/// concrete parameterisation.
#[derive(Debug, Clone, PartialEq)]
pub struct Measurement {
    /// Algorithm name (e.g. `"alg1(fos)"`).
    pub algorithm: String,
    /// Graph family label (e.g. `"hypercube(10)"`).
    pub graph: String,
    /// Number of nodes.
    pub nodes: usize,
    /// Maximum degree of the graph.
    pub max_degree: usize,
    /// Number of rounds the discrete process ran for.
    pub rounds: usize,
    /// Final max-min makespan discrepancy (summary over repeats/seeds).
    pub max_min: Summary,
    /// Final max-avg makespan discrepancy (summary over repeats/seeds).
    pub max_avg: Summary,
    /// Free-form extra key/value annotations (e.g. `w_max`, `lambda`).
    pub notes: Vec<(String, String)>,
}

impl Measurement {
    fn to_json(&self) -> Json {
        Json::obj([
            ("algorithm", Json::from(self.algorithm.clone())),
            ("graph", Json::from(self.graph.clone())),
            ("nodes", Json::from(self.nodes)),
            ("max_degree", Json::from(self.max_degree)),
            ("rounds", Json::from(self.rounds)),
            ("max_min", self.max_min.to_json()),
            ("max_avg", self.max_avg.to_json()),
            (
                "notes",
                Json::Arr(
                    self.notes
                        .iter()
                        .map(|(k, v)| Json::Arr(vec![Json::from(k.clone()), Json::from(v.clone())]))
                        .collect(),
                ),
            ),
        ])
    }

    fn from_json(json: &Json) -> Result<Self, String> {
        let field = |key: &str| json.get(key).ok_or_else(|| format!("missing field {key}"));
        let notes = match json.get("notes") {
            None => Vec::new(),
            Some(notes) => notes
                .as_array()
                .ok_or("notes must be an array")?
                .iter()
                .map(|pair| {
                    let pair = pair.as_array().ok_or("note must be a [key, value] pair")?;
                    match pair {
                        [k, v] => Ok((
                            k.as_str().ok_or("note key must be a string")?.to_string(),
                            v.as_str().ok_or("note value must be a string")?.to_string(),
                        )),
                        _ => Err("note must have exactly two entries".to_string()),
                    }
                })
                .collect::<Result<Vec<_>, String>>()?,
        };
        Ok(Measurement {
            algorithm: field("algorithm")?
                .as_str()
                .ok_or("algorithm must be a string")?
                .to_string(),
            graph: field("graph")?
                .as_str()
                .ok_or("graph must be a string")?
                .to_string(),
            nodes: field("nodes")?
                .as_usize()
                .ok_or("nodes must be an integer")?,
            max_degree: field("max_degree")?
                .as_usize()
                .ok_or("max_degree must be an integer")?,
            rounds: field("rounds")?
                .as_usize()
                .ok_or("rounds must be an integer")?,
            max_min: Summary::from_json(field("max_min")?)?,
            max_avg: Summary::from_json(field("max_avg")?)?,
            notes,
        })
    }
}

/// A complete experiment: which paper artefact it reproduces plus all of its
/// measurements.
#[derive(Debug, Clone, PartialEq)]
pub struct ExperimentRecord {
    /// Experiment id from DESIGN.md (e.g. `"E1"`).
    pub id: String,
    /// The paper artefact being reproduced (e.g. `"Table 1"`).
    pub paper_artifact: String,
    /// Human-readable description of the setup.
    pub description: String,
    /// All measurements taken.
    pub measurements: Vec<Measurement>,
}

impl ExperimentRecord {
    /// Creates an empty record.
    pub fn new(
        id: impl Into<String>,
        paper_artifact: impl Into<String>,
        description: impl Into<String>,
    ) -> Self {
        ExperimentRecord {
            id: id.into(),
            paper_artifact: paper_artifact.into(),
            description: description.into(),
            measurements: Vec::new(),
        }
    }

    /// Adds a measurement.
    pub fn push(&mut self, measurement: Measurement) -> &mut Self {
        self.measurements.push(measurement);
        self
    }

    /// Serialises the record as pretty JSON.
    pub fn to_json(&self) -> String {
        Json::obj([
            ("id", Json::from(self.id.clone())),
            ("paper_artifact", Json::from(self.paper_artifact.clone())),
            ("description", Json::from(self.description.clone())),
            (
                "measurements",
                Json::Arr(self.measurements.iter().map(|m| m.to_json()).collect()),
            ),
        ])
        .render_pretty()
    }

    /// Parses a record from its JSON representation.
    ///
    /// # Errors
    ///
    /// Returns a message describing the first syntax or schema violation.
    pub fn from_json_str(text: &str) -> Result<Self, String> {
        let json = Json::parse(text)?;
        let field = |key: &str| json.get(key).ok_or_else(|| format!("missing field {key}"));
        Ok(ExperimentRecord {
            id: field("id")?
                .as_str()
                .ok_or("id must be a string")?
                .to_string(),
            paper_artifact: field("paper_artifact")?
                .as_str()
                .ok_or("paper_artifact must be a string")?
                .to_string(),
            description: field("description")?
                .as_str()
                .ok_or("description must be a string")?
                .to_string(),
            measurements: field("measurements")?
                .as_array()
                .ok_or("measurements must be an array")?
                .iter()
                .map(Measurement::from_json)
                .collect::<Result<Vec<_>, String>>()?,
        })
    }

    /// Writes the record to `dir/<id>.json`, creating the directory if
    /// needed, and returns the path written.
    ///
    /// # Errors
    ///
    /// Returns any I/O error from creating the directory or writing the file.
    pub fn write_to_dir(&self, dir: impl AsRef<Path>) -> io::Result<PathBuf> {
        let dir = dir.as_ref();
        fs::create_dir_all(dir)?;
        let path = dir.join(format!("{}.json", self.id));
        crate::artifact::write_bytes_atomic(&path, self.to_json().as_bytes())?;
        Ok(path)
    }

    /// Reads a record back from a JSON file.
    ///
    /// # Errors
    ///
    /// Returns an I/O error if the file cannot be read or an
    /// `InvalidData` error if it does not parse as a record.
    pub fn read_from(path: impl AsRef<Path>) -> io::Result<Self> {
        let text = fs::read_to_string(path)?;
        Self::from_json_str(&text).map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_record() -> ExperimentRecord {
        let mut rec = ExperimentRecord::new("E-test", "Table 1", "unit-test record");
        rec.push(Measurement {
            algorithm: "alg1(fos)".into(),
            graph: "hypercube(4)".into(),
            nodes: 16,
            max_degree: 4,
            rounds: 100,
            max_min: Summary::of(&[3.0, 4.0]),
            max_avg: Summary::of(&[2.0, 2.0]),
            notes: vec![("w_max".into(), "1".into())],
        });
        rec
    }

    #[test]
    fn json_roundtrip() {
        let rec = sample_record();
        let json = rec.to_json();
        let parsed = ExperimentRecord::from_json_str(&json).unwrap();
        assert_eq!(parsed, rec);
        assert!(json.contains("alg1(fos)"));
    }

    #[test]
    fn write_and_read_back() {
        let rec = sample_record();
        let dir = crate::artifact::unique_temp_path("lb_analysis_record_test");
        let path = rec.write_to_dir(&dir).unwrap();
        assert!(path.ends_with("E-test.json"));
        let read = ExperimentRecord::read_from(&path).unwrap();
        assert_eq!(read, rec);
        let _ = std::fs::remove_file(path);
    }

    #[test]
    fn read_invalid_data_fails() {
        let dir = crate::artifact::unique_temp_path("lb_analysis_record_test_bad");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("bad.json");
        std::fs::write(&path, "not json").unwrap();
        let err = ExperimentRecord::read_from(&path).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        let _ = std::fs::remove_file(path);
    }

    #[test]
    fn missing_notes_default_to_empty() {
        let text = r#"{"id": "x", "paper_artifact": "t", "description": "d",
            "measurements": [{"algorithm": "a", "graph": "g", "nodes": 4,
            "max_degree": 2, "rounds": 7,
            "max_min": {"count": 0, "mean": 0, "std_dev": 0, "min": 0, "max": 0, "median": 0},
            "max_avg": {"count": 0, "mean": 0, "std_dev": 0, "min": 0, "max": 0, "median": 0}}]}"#;
        let rec = ExperimentRecord::from_json_str(text).unwrap();
        assert!(rec.measurements[0].notes.is_empty());
    }
}
