//! Trace-artefact invariant checks.
//!
//! A released dataset needs a validator (the Azure dataset ships one as a
//! schema document; we ship executable checks). Used by `trace-tool
//! validate` and by downstream loaders that want to fail fast on corrupt
//! artefacts.

use crate::dataset::VmSeries;
use crate::population::VmRecord;

/// A violated invariant.
#[derive(Debug, Clone, PartialEq)]
pub enum Violation {
    /// VM table and series have different lengths.
    RowCountMismatch {
        /// Rows in the VM table.
        records: usize,
        /// Entries in the series file.
        series: usize,
    },
    /// A VM id appears twice.
    DuplicateVmId(u32),
    /// A CPU sample is outside `[0, 100]` or non-finite.
    CpuOutOfRange {
        /// Index of the offending VM.
        vm_index: usize,
    },
    /// A bandwidth sample is negative or non-finite.
    BadBandwidth {
        /// Index of the offending VM.
        vm_index: usize,
    },
    /// A VM subscribes zero cores or memory.
    EmptyResources(u32),
    /// `image_id` does not equal the app id (§2's app definition).
    ImageAppMismatch(u32),
    /// Two series have different lengths (all VMs share one config).
    RaggedSeries {
        /// Index of the offending VM.
        vm_index: usize,
    },
}

impl std::fmt::Display for Violation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Violation::RowCountMismatch { records, series } => {
                write!(f, "{records} VM rows vs {series} series")
            }
            Violation::DuplicateVmId(id) => write!(f, "duplicate VM id {id}"),
            Violation::CpuOutOfRange { vm_index } => {
                write!(f, "VM #{vm_index}: CPU sample out of [0,100]")
            }
            Violation::BadBandwidth { vm_index } => {
                write!(f, "VM #{vm_index}: invalid bandwidth sample")
            }
            Violation::EmptyResources(id) => write!(f, "VM {id} has empty resources"),
            Violation::ImageAppMismatch(id) => write!(f, "VM {id} image/app mismatch"),
            Violation::RaggedSeries { vm_index } => {
                write!(f, "VM #{vm_index}: series length differs from VM #0")
            }
        }
    }
}

/// Check every invariant; returns all violations found (empty = valid).
pub fn validate(records: &[VmRecord], series: &[VmSeries]) -> Vec<Violation> {
    let mut out = Vec::new();
    if records.len() != series.len() {
        out.push(Violation::RowCountMismatch {
            records: records.len(),
            series: series.len(),
        });
    }
    let mut ids: Vec<u32> = records.iter().map(|r| r.vm.0).collect();
    ids.sort_unstable();
    for w in ids.windows(2) {
        if w[0] == w[1] {
            out.push(Violation::DuplicateVmId(w[0]));
        }
    }
    for (i, s) in series.iter().enumerate() {
        if s.cpu_util_pct
            .iter()
            .any(|v| !(0.0..=100.0).contains(v) || !v.is_finite())
        {
            out.push(Violation::CpuOutOfRange { vm_index: i });
        }
        if s.bw_mbps.iter().any(|v| *v < 0.0 || !v.is_finite()) {
            out.push(Violation::BadBandwidth { vm_index: i });
        }
        if let Some(first) = series.first() {
            if s.cpu_util_pct.len() != first.cpu_util_pct.len()
                || s.bw_mbps.len() != first.bw_mbps.len()
            {
                out.push(Violation::RaggedSeries { vm_index: i });
            }
        }
    }
    for r in records {
        if r.cores == 0 || r.mem_gb == 0 {
            out.push(Violation::EmptyResources(r.vm.0));
        }
        if r.image_id != r.app.0 {
            out.push(Violation::ImageAppMismatch(r.vm.0));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dataset::TraceDataset;
    use crate::series::TraceConfig;

    /// A tiny dataset's VM table and every VM's full series.
    fn tiny() -> (Vec<VmRecord>, Vec<VmSeries>) {
        let cfg = TraceConfig {
            days: 1,
            cpu_interval_min: 60,
            bw_interval_min: 120,
            start_weekday: 0,
        };
        let ds = TraceDataset::generate_azure(3, 2, 5, cfg, 1);
        let series = (0..ds.n_vms()).map(|i| ds.vm_series(i)).collect();
        (ds.records, series)
    }

    #[test]
    fn generated_traces_valid() {
        let (records, series) = tiny();
        assert!(validate(&records, &series).is_empty());
    }

    #[test]
    fn detects_duplicate_ids() {
        let (mut records, series) = tiny();
        let id = records[0].vm;
        records[1].vm = id;
        let v = validate(&records, &series);
        assert!(
            v.iter().any(|x| matches!(x, Violation::DuplicateVmId(_))),
            "{v:?}"
        );
    }

    #[test]
    fn detects_bad_samples() {
        let (records, mut series) = tiny();
        series[0].cpu_util_pct[0] = 150.0;
        series[1].bw_mbps[0] = -1.0;
        let v = validate(&records, &series);
        assert!(v.contains(&Violation::CpuOutOfRange { vm_index: 0 }));
        assert!(v.contains(&Violation::BadBandwidth { vm_index: 1 }));
    }

    #[test]
    fn detects_structural_problems() {
        let (mut records, mut series) = tiny();
        records[0].image_id += 1;
        series[2].cpu_util_pct.pop();
        let short = &series[..series.len() - 1];
        let v = validate(&records, short);
        assert!(v
            .iter()
            .any(|x| matches!(x, Violation::RowCountMismatch { .. })));
        assert!(v
            .iter()
            .any(|x| matches!(x, Violation::ImageAppMismatch(_))));
        assert!(v
            .iter()
            .any(|x| matches!(x, Violation::RaggedSeries { .. })));
        // Display is human-readable.
        assert!(v[0].to_string().len() > 5);
    }
}
