//! Seeded workload inputs: the compile slices every workload draws from,
//! the instances of each slice, and the jobs and request frames they
//! become. The program only ever sees the generated DIMACS text.

use weaver_engine::jsonl::escape;
use weaver_engine::{CompileJob, JobOptions, JobSource, Target};
use weaver_sat::generator::{random_formula, satlib_clause_count};

/// The three targets the benchmark compiles for.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    Fpqa,
    ScEagle,
    Sim,
}

/// One compile slice: a target at one instance size.
#[derive(Clone, Copy, Debug)]
pub struct Slice {
    pub name: &'static str,
    pub kind: Kind,
    pub vars: usize,
}

impl Slice {
    pub fn target(&self) -> &'static str {
        match self.kind {
            Kind::Fpqa => "fpqa",
            Kind::ScEagle => "sc:eagle",
            Kind::Sim => "simulator",
        }
    }

    /// FPQA jobs run the wChecker; the other targets have no checker.
    pub fn check(&self) -> bool {
        self.kind == Kind::Fpqa
    }
}

/// The paper's compile sweep without baselines: FPQA at every paper size,
/// `sc:eagle` up to 100 variables, and the simulator at 14 qubits — below
/// the kernels' 2^16-amplitude threading threshold, so it adds no threads.
pub const SLICES: [Slice; 11] = [
    Slice {
        name: "fpqa_20",
        kind: Kind::Fpqa,
        vars: 20,
    },
    Slice {
        name: "fpqa_50",
        kind: Kind::Fpqa,
        vars: 50,
    },
    Slice {
        name: "fpqa_75",
        kind: Kind::Fpqa,
        vars: 75,
    },
    Slice {
        name: "fpqa_100",
        kind: Kind::Fpqa,
        vars: 100,
    },
    Slice {
        name: "fpqa_150",
        kind: Kind::Fpqa,
        vars: 150,
    },
    Slice {
        name: "fpqa_250",
        kind: Kind::Fpqa,
        vars: 250,
    },
    Slice {
        name: "sc_eagle_20",
        kind: Kind::ScEagle,
        vars: 20,
    },
    Slice {
        name: "sc_eagle_50",
        kind: Kind::ScEagle,
        vars: 50,
    },
    Slice {
        name: "sc_eagle_75",
        kind: Kind::ScEagle,
        vars: 75,
    },
    Slice {
        name: "sc_eagle_100",
        kind: Kind::ScEagle,
        vars: 100,
    },
    Slice {
        name: "sim_14",
        kind: Kind::Sim,
        vars: 14,
    },
];

/// Index of a slice in [`SLICES`] by name.
pub fn slice_index(name: &str) -> usize {
    SLICES
        .iter()
        .position(|s| s.name == name)
        .expect("slice name is one of SLICES")
}

/// SplitMix64 step: derives independent instance seeds from the run seed.
pub fn mix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// One generated compile input.
#[derive(Clone, Debug)]
pub struct Item {
    pub slice: usize,
    pub name: String,
    pub dimacs: String,
}

impl Item {
    /// The `index`-th instance of `slice` in the stream `stream` of a run
    /// seeded with `seed`. Streams keep workload phases (timed sweep,
    /// set-up warm-ups, quality set, traced replay, …) disjoint.
    pub fn new(seed: u64, stream: u64, slice: usize, index: u64) -> Item {
        let s = &SLICES[slice];
        let instance_seed = mix(mix(mix(seed ^ (stream << 56)) ^ slice as u64) ^ index);
        let formula = random_formula(s.vars, satlib_clause_count(s.vars), instance_seed);
        Item {
            slice,
            name: format!("{}-s{stream}-i{index}", s.name),
            dimacs: weaver_sat::dimacs::to_string(&formula),
        }
    }

    pub fn slice(&self) -> &'static Slice {
        &SLICES[self.slice]
    }

    /// The in-process engine job for this input: DIMACS text parsed by the
    /// engine, exactly what a `weaverd` compile request builds.
    pub fn job(&self) -> CompileJob {
        let s = self.slice();
        CompileJob {
            source: JobSource::Inline {
                name: self.name.clone(),
                text: self.dimacs.clone(),
            },
            frontend: Some("dimacs".to_string()),
            target: Target::parse(s.target()).expect("benchmark targets are registered"),
            options: JobOptions {
                check: s.check(),
                ..JobOptions::default()
            },
        }
    }

    /// The `weaverd` compile request for this input, split around its
    /// `id` so a client can number requests without re-encoding the text.
    pub fn request(&self) -> Request {
        let s = self.slice();
        Request {
            prefix: b"{\"verb\":\"compile\",\"id\":".to_vec(),
            suffix: format!(
                ",\"name\":\"{}\",\"text\":\"{}\",\"frontend\":\"dimacs\",\"target\":\"{}\",\"check\":{},\"emit\":true}}",
                escape(&self.name),
                escape(&self.dimacs),
                s.target(),
                s.check()
            )
            .into_bytes(),
        }
    }
}

/// A compile request frame payload with a hole for the request id.
#[derive(Clone, Debug)]
pub struct Request {
    pub prefix: Vec<u8>,
    pub suffix: Vec<u8>,
}

impl Request {
    /// Writes the payload for request `id` into `out` (cleared first).
    pub fn render(&self, id: u64, out: &mut Vec<u8>) {
        out.clear();
        out.extend_from_slice(&self.prefix);
        out.extend_from_slice(id.to_string().as_bytes());
        out.extend_from_slice(&self.suffix);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn items_are_seeded() {
        let a = Item::new(7, 1, 5, 3);
        assert_eq!(a.dimacs, Item::new(7, 1, 5, 3).dimacs);
        assert_ne!(a.dimacs, Item::new(8, 1, 5, 3).dimacs);
        assert_ne!(a.dimacs, Item::new(7, 2, 5, 3).dimacs);
        assert!(a.dimacs.starts_with("p cnf 250 1065"));
    }

    #[test]
    fn request_is_valid_json_with_the_id() {
        let item = Item::new(1, 0, 10, 0);
        let mut out = Vec::new();
        item.request().render(42, &mut out);
        let v = weaver_engine::jsonl::JsonValue::parse(std::str::from_utf8(&out).unwrap()).unwrap();
        assert_eq!(v.get("id").and_then(|v| v.as_u64()), Some(42));
        assert_eq!(v.str_field("text"), Some(item.dimacs.as_str()));
        assert_eq!(v.str_field("target"), Some("simulator"));
    }
}
