//! Trace (de)serialization.
//!
//! Two artefact formats, mirroring how such traces are published (the
//! Azure dataset ships as CSV; series data as packed binaries):
//!
//! * **VM table** — TSV with a fixed header, one row per VM;
//! * **series** — a length-prefixed little-endian binary: magic, VM
//!   count, then per VM the CPU and bandwidth vectors as `f32`s, each
//!   prefixed by its `u32` length.
//!
//! Round-tripping is exact for the VM table and bit-exact for the `f32`
//! series.

use crate::app::AppCategory;
use crate::dataset::VmSeries;
use crate::population::VmRecord;
use edgescope_platform::ids::{AppId, CustomerId, ServerId, SiteId, VmId};

/// Magic header of the binary series format.
pub const SERIES_MAGIC: u32 = 0x4553_5452; // "ESTR"

/// Errors from parsing trace artefacts.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ParseError {
    /// Header mismatch or truncated input.
    Malformed(String),
}

impl std::fmt::Display for ParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ParseError::Malformed(m) => write!(f, "malformed trace artefact: {m}"),
        }
    }
}

impl std::error::Error for ParseError {}

const VM_TABLE_HEADER: &str =
    "vm\tapp\tcustomer\tcategory\tsite\tserver\tcores\tmem_gb\tdisk_gb\tbandwidth_mbps\timage_id\tos_type";

/// Serialize the VM table as TSV.
pub fn vm_table_to_tsv(records: &[VmRecord]) -> String {
    let mut out = String::with_capacity(64 * (records.len() + 1));
    out.push_str(VM_TABLE_HEADER);
    out.push('\n');
    for r in records {
        out.push_str(&format!(
            "{}\t{}\t{}\t{}\t{}\t{}\t{}\t{}\t{}\t{}\t{}\t{}\n",
            r.vm.0,
            r.app.0,
            r.customer.0,
            r.category.label(),
            r.site.0,
            r.server.0,
            r.cores,
            r.mem_gb,
            r.disk_gb,
            r.bandwidth_mbps,
            r.image_id,
            r.os_type,
        ));
    }
    out
}

/// Parse a TSV VM table.
pub fn vm_table_from_tsv(tsv: &str) -> Result<Vec<VmRecord>, ParseError> {
    let mut lines = tsv.lines();
    let header = lines
        .next()
        .ok_or_else(|| ParseError::Malformed("empty input".into()))?;
    if header != VM_TABLE_HEADER {
        return Err(ParseError::Malformed(format!("bad header: {header}")));
    }
    let mut out = Vec::new();
    for (lineno, line) in lines.enumerate() {
        if line.is_empty() {
            continue;
        }
        let f: Vec<&str> = line.split('\t').collect();
        if f.len() != 12 {
            return Err(ParseError::Malformed(format!(
                "line {}: {} fields (want 12)",
                lineno + 2,
                f.len()
            )));
        }
        let err = |what: &str| ParseError::Malformed(format!("line {}: bad {what}", lineno + 2));
        // `f64::parse` accepts "NaN", "inf" and negative values, but a
        // VM's subscribed bandwidth is a finite, non-negative rate: its
        // bandwidth series is synthesized from it.
        let bandwidth_mbps: f64 = f[9].parse().map_err(|_| err("bandwidth"))?;
        if !(bandwidth_mbps.is_finite() && bandwidth_mbps >= 0.0) {
            return Err(err("bandwidth"));
        }
        out.push(VmRecord {
            vm: VmId(f[0].parse().map_err(|_| err("vm"))?),
            app: AppId(f[1].parse().map_err(|_| err("app"))?),
            customer: CustomerId(f[2].parse().map_err(|_| err("customer"))?),
            category: AppCategory::from_label(f[3]).ok_or_else(|| err("category"))?,
            site: SiteId(f[4].parse().map_err(|_| err("site"))?),
            server: ServerId(f[5].parse().map_err(|_| err("server"))?),
            cores: f[6].parse().map_err(|_| err("cores"))?,
            mem_gb: f[7].parse().map_err(|_| err("mem_gb"))?,
            disk_gb: f[8].parse().map_err(|_| err("disk_gb"))?,
            bandwidth_mbps,
            image_id: f[10].parse().map_err(|_| err("image_id"))?,
            os_type: f[11].parse().map_err(|_| err("os_type"))?,
        });
    }
    Ok(out)
}

/// Serialize series to the binary format.
pub fn series_to_bytes(series: &[VmSeries]) -> Vec<u8> {
    let mut buf = Vec::new();
    buf.extend_from_slice(&SERIES_MAGIC.to_le_bytes());
    buf.extend_from_slice(&(series.len() as u32).to_le_bytes());
    for s in series {
        for values in [&s.cpu_util_pct, &s.bw_mbps] {
            buf.extend_from_slice(&(values.len() as u32).to_le_bytes());
            for v in values {
                buf.extend_from_slice(&v.to_le_bytes());
            }
        }
    }
    buf
}

/// Split `n` bytes off the front of `rest`.
fn take<'a>(rest: &mut &'a [u8], n: usize) -> Result<&'a [u8], ParseError> {
    if rest.len() < n {
        return Err(ParseError::Malformed(format!(
            "truncated: need {n} bytes, have {}",
            rest.len()
        )));
    }
    let (head, tail) = rest.split_at(n);
    *rest = tail;
    Ok(head)
}

/// Read one little-endian `u32` off the front of `rest`.
fn take_u32(rest: &mut &[u8]) -> Result<u32, ParseError> {
    Ok(u32::from_le_bytes(
        take(rest, 4)?.try_into().expect("4 bytes"),
    ))
}

/// Read a `u32` length, then that many little-endian `f32`s.
fn take_f32s(rest: &mut &[u8]) -> Result<Vec<f32>, ParseError> {
    let n = take_u32(rest)? as usize;
    let raw = take(rest, n.saturating_mul(4))?;
    Ok(raw
        .chunks_exact(4)
        .map(|b| f32::from_le_bytes(b.try_into().expect("4 bytes")))
        .collect())
}

/// Parse the binary series format.
pub fn series_from_bytes(mut data: &[u8]) -> Result<Vec<VmSeries>, ParseError> {
    let magic = take_u32(&mut data)?;
    if magic != SERIES_MAGIC {
        return Err(ParseError::Malformed(format!("bad magic {magic:#x}")));
    }
    let n_vms = take_u32(&mut data)? as usize;
    // The count comes from the input: reserve no more VMs than the
    // remaining bytes can hold (two length prefixes, 8 bytes, per VM).
    let mut out = Vec::with_capacity(n_vms.min(data.len() / 8));
    for _ in 0..n_vms {
        let cpu_util_pct = take_f32s(&mut data)?;
        let bw_mbps = take_f32s(&mut data)?;
        out.push(VmSeries {
            cpu_util_pct,
            bw_mbps,
        });
    }
    if !data.is_empty() {
        return Err(ParseError::Malformed(format!(
            "{} trailing bytes",
            data.len()
        )));
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dataset::TraceDataset;
    use crate::series::TraceConfig;

    fn tiny() -> TraceDataset {
        let cfg = TraceConfig {
            days: 2,
            cpu_interval_min: 30,
            bw_interval_min: 60,
            start_weekday: 0,
        };
        TraceDataset::generate_azure(1, 3, 8, cfg, 1)
    }

    /// Every VM's full series, CPU regenerated from the dataset's seed.
    fn all_series(ds: &TraceDataset) -> Vec<VmSeries> {
        (0..ds.n_vms()).map(|i| ds.vm_series(i)).collect()
    }

    #[test]
    fn vm_table_roundtrip() {
        let ds = tiny();
        let tsv = vm_table_to_tsv(&ds.records);
        let parsed = vm_table_from_tsv(&tsv).expect("parse");
        assert_eq!(parsed.len(), ds.records.len());
        // Rust's shortest-roundtrip float formatting makes this exact.
        assert_eq!(parsed, ds.records);
    }

    #[test]
    fn series_roundtrip_bit_exact() {
        let ds = tiny();
        let series = all_series(&ds);
        let bytes = series_to_bytes(&series);
        let parsed = series_from_bytes(&bytes).expect("parse");
        assert_eq!(parsed, series);
    }

    #[test]
    fn bad_header_rejected() {
        let err = vm_table_from_tsv("nope\n1\t2\n").unwrap_err();
        assert!(matches!(err, ParseError::Malformed(_)));
    }

    #[test]
    fn bad_field_rejected() {
        let ds = tiny();
        let tsv = vm_table_to_tsv(&ds.records[..1]);
        let corrupted = tsv
            .replace("live-streaming", "parcheesi")
            .replace("web-service", "parcheesi")
            .replace("dev-test", "parcheesi")
            .replace("batch-compute", "parcheesi")
            .replace("database", "parcheesi")
            .replace("content-delivery", "parcheesi")
            .replace("video-conference", "parcheesi");
        assert!(vm_table_from_tsv(&corrupted).is_err());
    }

    #[test]
    fn category_labels_are_exact_case() {
        let tsv = vm_table_to_tsv(&tiny().records[..1]);
        let (header, row) = tsv.trim_end().split_once('\n').unwrap();
        let mut f: Vec<&str> = row.split('\t').collect();
        for bad in ["Live-Streaming", "LIVE-STREAMING", "live_streaming", ""] {
            f[3] = bad;
            let doctored = format!("{header}\n{}\n", f.join("\t"));
            assert_eq!(
                vm_table_from_tsv(&doctored).unwrap_err(),
                ParseError::Malformed("line 2: bad category".into()),
                "category {bad:?}"
            );
        }
        f[3] = "live-streaming";
        let row = format!("{header}\n{}\n", f.join("\t"));
        let parsed = vm_table_from_tsv(&row).unwrap();
        assert_eq!(parsed[0].category, AppCategory::LiveStreaming);
    }

    #[test]
    fn non_finite_or_negative_bandwidth_rejected() {
        // Was accepted: `f64::parse` reads all four.
        let tsv = vm_table_to_tsv(&tiny().records[..1]);
        let (header, row) = tsv.trim_end().split_once('\n').unwrap();
        let mut f: Vec<&str> = row.split('\t').collect();
        for bad in ["NaN", "inf", "-inf", "-0.5"] {
            f[9] = bad;
            let doctored = format!("{header}\n{}\n", f.join("\t"));
            assert_eq!(
                vm_table_from_tsv(&doctored).unwrap_err(),
                ParseError::Malformed("line 2: bad bandwidth".into()),
                "bandwidth {bad}"
            );
        }
        // Zero and negative zero are rates.
        for ok in ["0", "-0", "12.5"] {
            f[9] = ok;
            let row = format!("{header}\n{}\n", f.join("\t"));
            assert_eq!(vm_table_from_tsv(&row).unwrap().len(), 1, "bandwidth {ok}");
        }
    }

    #[test]
    fn truncated_series_rejected() {
        let bytes = series_to_bytes(&all_series(&tiny()));
        assert!(series_from_bytes(&bytes[..bytes.len() - 3]).is_err());
    }

    #[test]
    fn huge_vm_count_in_a_short_input_rejected() {
        // Magic plus a VM count of u32::MAX and nothing else: the count
        // must not size an allocation before the input backs it.
        let mut raw = SERIES_MAGIC.to_le_bytes().to_vec();
        raw.extend_from_slice(&u32::MAX.to_le_bytes());
        assert_eq!(raw.len(), 8);
        assert!(series_from_bytes(&raw).is_err());
    }

    #[test]
    fn wrong_magic_rejected() {
        let mut raw = series_to_bytes(&all_series(&tiny()));
        raw[0] ^= 0xFF;
        assert!(series_from_bytes(&raw).is_err());
    }

    #[test]
    fn trailing_bytes_rejected() {
        let mut raw = series_to_bytes(&all_series(&tiny()));
        raw.push(0);
        assert!(series_from_bytes(&raw).is_err());
    }
}
