//! The checksummed, schema-versioned JSON envelope of bundles and session
//! snapshots, `{"format":…,"schema_version":…,"checksum":…,"<key>":<payload>}`:
//! the one place that knows its layout. The checksum is FNV-1a over the
//! payload's bytes exactly as [`Envelope::seal`] wrote them; [`Envelope::open`]
//! refuses a wrong marker or schema from the header alone, then hashes the
//! same raw bytes sliced out of the file. Nothing is re-rendered, so any
//! edit to the payload bytes, whitespace included, fails the check.

use pmu_numerics::hash::fnv1a;
use serde::{Deserialize, Serialize, Value};

use crate::bundle::{fp_hex, ModelError};
use crate::Result;

/// One kind of sealed artifact; its payload is always the last member.
pub(crate) struct Envelope {
    pub format: &'static str,
    pub schema_version: u32,
    pub payload_key: &'static str,
}

/// JSON's insignificant whitespace.
const JSON_WS: [char; 4] = [' ', '\t', '\n', '\r'];

pub(crate) fn malformed(e: impl std::fmt::Display) -> ModelError {
    ModelError::Malformed(e.to_string())
}

impl Envelope {
    /// Serialize `value` into a checksummed envelope.
    pub(crate) fn seal<T: Serialize>(&self, value: &T) -> Result<String> {
        let payload = serde_json::to_string(value).map_err(malformed)?;
        let checksum = fp_hex(fnv1a(payload.as_bytes()));
        Ok(format!(
            "{{\"format\":\"{}\",\"schema_version\":{},\
             \"checksum\":\"{checksum}\",\"{}\":{payload}}}",
            self.format, self.schema_version, self.payload_key
        ))
    }

    /// Verify a sealed envelope and rebuild its payload: `Malformed` for
    /// a bad header or payload, `SchemaMismatch` for version skew,
    /// `ChecksumMismatch` when the payload bytes do not hash as recorded.
    pub(crate) fn open<T: Deserialize>(&self, s: &str) -> Result<T> {
        // The members in front of the payload key, closed into an object
        // of their own, are the header. Every cut is at an ASCII
        // delimiter, so the slices stay on char boundaries.
        let (header, payload) = match s.split_once(&format!("\"{}\":", self.payload_key)) {
            Some((members, rest)) => {
                let members = members.trim_end_matches(JSON_WS);
                let members = match members.strip_suffix(',') {
                    Some(m) => m,
                    None if members.ends_with('{') => members,
                    None => return Err(malformed("payload key is not an envelope member")),
                };
                let payload = rest.trim_end_matches(JSON_WS).strip_suffix('}');
                let payload = payload.ok_or_else(|| malformed("envelope is not closed"))?;
                (format!("{members}}}"), Some(payload.trim_matches(JSON_WS)))
            }
            None => (s.to_string(), None),
        };
        let header: Value = serde_json::from_str(&header).map_err(malformed)?;
        match serde::obj_get(&header, "format").map_err(malformed)? {
            Value::Str(f) if f == self.format => {}
            other => return Err(malformed(format!("bad format marker: {other:?}"))),
        }
        let found: u32 = serde::from_field(&header, "schema_version").map_err(malformed)?;
        if found != self.schema_version {
            return Err(ModelError::SchemaMismatch { found, expected: self.schema_version });
        }
        let stored: String = serde::from_field(&header, "checksum").map_err(malformed)?;
        let payload =
            payload.ok_or_else(|| malformed(format!("missing field `{}`", self.payload_key)))?;
        // Syntax before digest, so a cut-off file reads as Malformed and
        // only a well-formed but altered payload as a checksum failure;
        // nothing is interpreted as a `T` until the digest matches.
        let tree: Value = serde_json::from_str(payload).map_err(malformed)?;
        let computed = fp_hex(fnv1a(payload.as_bytes()));
        if computed != stored {
            return Err(ModelError::ChecksumMismatch { stored, computed });
        }
        T::from_value(&tree).map_err(malformed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rejected<T>(r: Result<T>, what: &str) -> ModelError {
        match r {
            Ok(_) => panic!("{what}: damaged envelope was accepted"),
            Err(e) => e,
        }
    }

    /// Every way of damaging `sealed` ends in a typed error, never a panic
    /// or a silent load; the intact file re-seals byte-identically.
    fn sweep<T: Serialize + Deserialize>(env: &Envelope, sealed: &str) {
        let open = |s: &str| env.open::<T>(s);
        let key = format!("\"{}\":", env.payload_key);
        let header_len = sealed.find(&key).expect("payload key") + key.len();
        let payload = &sealed[header_len..sealed.len() - 1];
        let stride = (payload.len() / 300).max(1);
        let offsets: Vec<usize> =
            (0..=header_len).chain((header_len..sealed.len()).step_by(stride)).collect();

        // Truncation anywhere: header or payload.
        for &cut in &offsets {
            match open(&sealed[..cut]) {
                Err(ModelError::Malformed(_)) => {}
                other => panic!("cut at {cut}: expected Malformed, got {:?}", other.err()),
            }
        }
        // One flipped byte (ASCII stays ASCII, so the text stays UTF-8).
        for &at in offsets.iter().filter(|&&at| at < sealed.len()) {
            let mut bytes = sealed.as_bytes().to_vec();
            bytes[at] ^= 0x01;
            let damaged = String::from_utf8(bytes).expect("payload is ASCII");
            rejected(open(&damaged), &format!("flip at {at}"));
        }
        // Degenerate and half-built envelopes.
        let first_brace = header_len + payload.find('}').expect("payload has a brace");
        let missing_inner = format!("{}{}", &sealed[..first_brace], &sealed[first_brace + 1..]);
        for s in [
            "",
            "{}",
            "[]",
            "\"x\"",
            &format!("{}}}", &sealed[..header_len - key.len() - 1]),
            &sealed[..sealed.len() - 1],
            &missing_inner,
        ] {
            match open(s) {
                Err(ModelError::Malformed(_)) => {}
                other => panic!("{s:.80}: expected Malformed, got {:?}", other.err()),
            }
        }

        // A reformatted payload parses to the same tree but no longer
        // hashes to the recorded digest.
        let tree: Value = serde_json::from_str(payload).unwrap();
        let pretty = serde_json::to_string_pretty(&tree).unwrap();
        let reformatted = format!("{}{pretty}}}", &sealed[..header_len]);
        match open(&reformatted) {
            Err(ModelError::ChecksumMismatch { .. }) => {}
            other => panic!("reformatted: expected ChecksumMismatch, got {:?}", other.err()),
        }
        // Version skew is refused from the header alone.
        let current = format!("\"schema_version\":{},", env.schema_version);
        for found in [1, 999] {
            let skewed = sealed.replacen(&current, &format!("\"schema_version\":{found},"), 1);
            let err = rejected(open(&skewed), "skewed");
            assert_eq!(err, ModelError::SchemaMismatch { found, expected: env.schema_version });
        }
        // The intact envelope opens and re-seals to the same bytes.
        let back = open(sealed).expect("intact envelope opens");
        assert_eq!(env.seal(&back).unwrap(), sealed, "re-save is byte-stable");
    }

    #[test]
    fn bundle_envelope_fails_typed_under_damage() {
        let sealed = crate::bundle::tests::tiny_bundle().to_json().unwrap();
        sweep::<crate::ModelBundle>(&crate::bundle::ENVELOPE, &sealed);
    }

    #[test]
    fn snapshot_envelope_fails_typed_under_damage() {
        let sealed = crate::snapshot::tests::sample_snapshot().to_json().unwrap();
        sweep::<crate::SessionSnapshot>(&crate::snapshot::ENVELOPE, &sealed);
    }

    /// Whitespace around the payload member is not payload, and header
    /// members may come in any order as long as the payload comes last.
    #[test]
    fn header_layout_is_read_not_matched() {
        let env = Envelope { format: "t", schema_version: 3, payload_key: "p" };
        let sealed = env.seal(&vec![1.5f64, -2.0]).unwrap();
        let from = sealed.find("\"checksum\":").unwrap() + 11;
        let checksum = &sealed[from..sealed.find(",\"p\"").unwrap()];
        let spaced = format!(
            " {{ \"checksum\" : {checksum} ,\n\"extra\": {{}}, \"schema_version\":3,\
             \"format\":\"t\",\t\"p\": [1.5,-2.0] \n}} "
        );
        assert_eq!(env.open::<Vec<f64>>(&spaced).unwrap(), vec![1.5, -2.0]);
        // The payload key nested inside another header member is not the
        // payload member.
        let nested = spaced.replace("\"extra\": {}", "\"extra\": {\"p\": 1}");
        assert!(matches!(env.open::<Vec<f64>>(&nested), Err(ModelError::Malformed(_))));
    }
}
