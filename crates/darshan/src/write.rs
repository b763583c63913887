//! Writer emitting the `darshan-parser` text format.
//!
//! The output is deterministic: records are sorted by (module, record id,
//! rank) and counters are emitted in lexicographic order (integer counters
//! first, then floats), so a trace written twice produces identical text and
//! `parse(write(t))` is a lossless round-trip of counters and header fields.
//!
//! [`write_to`] streams the text into any [`fmt::Write`] sink, so a caller
//! that only hashes the canonical bytes (the service's cache key) never
//! builds the whole string; [`write_text`] is its `String` form.

use crate::counters::Module;
use crate::record::Record;
use crate::trace::DarshanTrace;
use std::fmt;

/// Serialize a trace into `darshan-parser` compatible text.
pub fn write_text(trace: &DarshanTrace) -> String {
    let mut out = String::with_capacity(4096 + trace.records.len() * 256);
    write_to(trace, &mut out).expect("writing to a String cannot fail");
    out
}

/// Stream the text [`write_text`] returns into `out`, piece by piece.
pub fn write_to<W: fmt::Write>(trace: &DarshanTrace, out: &mut W) -> fmt::Result {
    let h = &trace.header;
    writeln!(out, "# darshan log version: {}", h.version)?;
    writeln!(out, "# exe: {}", h.exe)?;
    writeln!(out, "# uid: {}", h.uid)?;
    writeln!(out, "# jobid: {}", h.jobid)?;
    writeln!(out, "# nprocs: {}", h.nprocs)?;
    writeln!(out, "# start_time: {}", h.start_time)?;
    writeln!(out, "# end_time: {}", h.end_time)?;
    writeln!(out, "# run time: {:.2}", h.run_time)?;
    for (k, v) in &h.metadata {
        writeln!(out, "# {k}: {v}")?;
    }
    writeln!(out, "#")?;
    writeln!(out, "# mounted file systems (mount point and fs type)")?;
    writeln!(
        out,
        "# -------------------------------------------------------"
    )?;
    for m in &h.mounts {
        writeln!(out, "# mount entry:\t{}\t{}", m.point, m.fs)?;
    }
    writeln!(out, "#")?;
    writeln!(
        out,
        "#<module>\t<rank>\t<record id>\t<counter>\t<value>\t<file name>\t<mount pt>\t<fs type>"
    )?;

    let mut sorted: Vec<&Record> = trace.records.iter().collect();
    sorted.sort_by(|a, b| {
        (module_order(a.module), a.record_id, a.rank).cmp(&(
            module_order(b.module),
            b.record_id,
            b.rank,
        ))
    });
    for rec in sorted {
        let m = rec.module.as_str();
        for (name, value) in rec.int_counters() {
            writeln!(
                out,
                "{m}\t{}\t{}\t{name}\t{value}\t{}\t{}\t{}",
                rec.rank, rec.record_id, rec.file, rec.mount, rec.fs
            )?;
        }
        for (name, value) in rec.float_counters() {
            writeln!(
                out,
                "{m}\t{}\t{}\t{name}\t{value:.6}\t{}\t{}\t{}",
                rec.rank, rec.record_id, rec.file, rec.mount, rec.fs
            )?;
        }
    }
    Ok(())
}

fn module_order(m: Module) -> usize {
    Module::ALL
        .iter()
        .position(|x| *x == m)
        .unwrap_or(usize::MAX)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse::parse_text;
    use crate::trace::JobHeader;

    fn sample_trace() -> DarshanTrace {
        let mut t = DarshanTrace::new(JobHeader::new("./bench", 16, 300.5));
        let mut p =
            Record::new(Module::Posix, -1, 7, "/scratch/data.h5").with_mount("/scratch", "lustre");
        p.set_ic("POSIX_OPENS", 32);
        p.set_ic("POSIX_WRITES", 4096);
        p.set_ic("POSIX_BYTES_WRITTEN", 1 << 30);
        p.set_fc("POSIX_F_WRITE_TIME", 42.125);
        p.set_fc("POSIX_F_META_TIME", 1.5);
        t.push(p);
        let mut l =
            Record::new(Module::Lustre, -1, 7, "/scratch/data.h5").with_mount("/scratch", "lustre");
        l.set_ic("LUSTRE_STRIPE_WIDTH", 4);
        l.set_ic("LUSTRE_STRIPE_SIZE", 1 << 20);
        l.set_ic("LUSTRE_OST_ID_0", 3);
        t.push(l);
        t
    }

    #[test]
    fn round_trip_preserves_everything() {
        let t = sample_trace();
        let text = write_text(&t);
        let back = parse_text(&text).unwrap();
        assert_eq!(back.header.nprocs, 16);
        assert!((back.header.run_time - 300.5).abs() < 1e-9);
        assert_eq!(back.records.len(), t.records.len());
        let p = back.records_for(Module::Posix).next().unwrap();
        assert_eq!(p.ic("POSIX_BYTES_WRITTEN"), 1 << 30);
        assert!((p.fc("POSIX_F_WRITE_TIME") - 42.125).abs() < 1e-6);
        assert_eq!(p.mount, "/scratch");
        let l = back.records_for(Module::Lustre).next().unwrap();
        assert_eq!(l.ic("LUSTRE_OST_ID_0"), 3);
    }

    #[test]
    fn output_is_deterministic() {
        let t = sample_trace();
        assert_eq!(write_text(&t), write_text(&t));
    }

    #[test]
    fn record_order_does_not_affect_output() {
        let t = sample_trace();
        let mut shuffled = t.clone();
        shuffled.records.reverse();
        assert_eq!(write_text(&t), write_text(&shuffled));
    }

    #[test]
    fn header_contains_mounts() {
        let mut t = sample_trace();
        t.header.mounts = vec![crate::trace::Mount {
            point: "/scratch".into(),
            fs: "lustre".into(),
        }];
        let text = write_text(&t);
        assert!(text.contains("# mount entry:\t/scratch\tlustre"));
    }
}
