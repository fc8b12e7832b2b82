//! Record values and their wire format.
//!
//! §2 of the paper: *"The small object holds all short fields along with
//! long field descriptors, each of which describes one of the object's
//! long fields; the long field itself is stored separately from the
//! object."* A descriptor here is the `(storage kind, root page)` pair
//! that [`lobstore_core::open_object`] needs.
//!
//! Wire format of a record (little-endian):
//!
//! ```text
//! [n_fields u16] then per field:
//!   tag 0x00 = short : [len u16][bytes]
//!   tag 0x01 = long  : [kind u8][root u32]
//! ```

use lobstore_core::StorageKind;
use lobstore_simdisk::{bytes as le, cast};

use crate::error::{RecordError, Result};

const TAG_SHORT: u8 = 0x00;
const TAG_LONG: u8 = 0x01;
/// Bytes the smallest field takes: an empty short field's tag and length.
const MIN_FIELD: usize = 3;

/// Descriptor of a long field stored outside the record.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct LongHandle {
    /// Which manager owns the long field.
    pub kind: StorageKind,
    /// META page of the long field's root.
    pub root_page: u32,
}

/// One stored field of a record.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Value {
    /// Bytes stored inline in the record.
    Short(Vec<u8>),
    /// Descriptor of an externally stored large object.
    Long(LongHandle),
}

impl Value {
    /// Convenience constructor for inline fields.
    pub fn short(bytes: impl Into<Vec<u8>>) -> Value {
        Value::Short(bytes.into())
    }

    /// The inline bytes, or `WrongFieldType` for a long field.
    pub fn as_short(&self) -> Result<&[u8]> {
        match self {
            Value::Short(b) => Ok(b),
            Value::Long(_) => Err(RecordError::WrongFieldType),
        }
    }

    /// The long-field descriptor, or `WrongFieldType` for a short field.
    pub fn as_long(&self) -> Result<LongHandle> {
        match self {
            Value::Long(h) => Ok(*h),
            Value::Short(_) => Err(RecordError::WrongFieldType),
        }
    }
}

/// Serialize a record.
pub fn encode(fields: &[Value]) -> Result<Vec<u8>> {
    if fields.len() > usize::from(u16::MAX) {
        return Err(RecordError::TooManyFields(fields.len()));
    }
    let mut out = Vec::with_capacity(32);
    out.extend_from_slice(&cast::usize_to_u16(fields.len()).to_le_bytes());
    for f in fields {
        match f {
            Value::Short(b) => {
                if b.len() > usize::from(u16::MAX) {
                    return Err(RecordError::ShortFieldTooLarge(b.len()));
                }
                out.push(TAG_SHORT);
                out.extend_from_slice(&cast::usize_to_u16(b.len()).to_le_bytes());
                out.extend_from_slice(b);
            }
            Value::Long(h) => {
                out.push(TAG_LONG);
                out.push(h.kind.as_u8());
                out.extend_from_slice(&h.root_page.to_le_bytes());
            }
        }
    }
    Ok(out)
}

/// Deserialize a record. A field count that the bytes after it cannot
/// hold is `Corrupt` before anything is reserved for the fields.
pub fn decode(bytes: &[u8]) -> Result<Vec<Value>> {
    let corrupt = |m: &str| RecordError::Corrupt(m.to_string());
    let mut at = 0usize;
    let take = |at: &mut usize, n: usize| -> Result<&[u8]> {
        if *at + n > bytes.len() {
            return Err(corrupt("record truncated"));
        }
        let s = &bytes[*at..*at + n];
        *at += n;
        Ok(s)
    };
    let n = usize::from(le::le_u16(take(&mut at, 2)?));
    let rest = bytes.len() - at;
    if n > rest / MIN_FIELD {
        return Err(RecordError::Corrupt(format!(
            "record claims {n} fields in {rest} bytes"
        )));
    }
    let mut fields = Vec::with_capacity(n);
    for _ in 0..n {
        let tag = take(&mut at, 1)?[0];
        match tag {
            TAG_SHORT => {
                let len = usize::from(le::le_u16(take(&mut at, 2)?));
                fields.push(Value::Short(take(&mut at, len)?.to_vec()));
            }
            TAG_LONG => {
                let kind_byte = take(&mut at, 1)?[0];
                let kind = StorageKind::from_u8(kind_byte)
                    .ok_or_else(|| corrupt("unknown long-field storage kind"))?;
                let root = le::le_u32(take(&mut at, 4)?);
                fields.push(Value::Long(LongHandle {
                    kind,
                    root_page: root,
                }));
            }
            _ => return Err(corrupt("unknown field tag")),
        }
    }
    if at != bytes.len() {
        return Err(corrupt("trailing bytes after record"));
    }
    Ok(fields)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_mixed_record() {
        let fields = vec![
            Value::short(b"Alexandros Biliris".to_vec()),
            Value::Long(LongHandle {
                kind: StorageKind::Eos,
                root_page: 42,
            }),
            Value::short(Vec::new()),
            Value::Long(LongHandle {
                kind: StorageKind::Starburst,
                root_page: 7,
            }),
        ];
        let bytes = encode(&fields).unwrap();
        assert_eq!(decode(&bytes).unwrap(), fields);
    }

    #[test]
    fn empty_record_roundtrips() {
        let bytes = encode(&[]).unwrap();
        assert_eq!(decode(&bytes).unwrap(), Vec::<Value>::new());
    }

    #[test]
    fn decode_rejects_garbage() {
        assert!(decode(&[]).is_err());
        assert!(decode(&[1, 0, 9, 9]).is_err(), "bad tag");
        assert!(decode(&[1, 0, 0, 5, 0, b'a']).is_err(), "truncated short");
        let good = encode(&[Value::short(b"x".to_vec())]).unwrap();
        let mut trailing = good.clone();
        trailing.push(0);
        assert!(decode(&trailing).is_err(), "trailing bytes");
    }

    #[test]
    fn a_field_count_the_bytes_cannot_hold_reserves_nothing() {
        assert_eq!(
            decode(&[0xFF, 0xFF]),
            Err(RecordError::Corrupt(
                "record claims 65535 fields in 0 bytes".into()
            ))
        );
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig {
            cases: if cfg!(debug_assertions) { 64 } else { 256 },
            ..proptest::prelude::ProptestConfig::default()
        })]
        /// `decode` is total over arbitrary bytes, valid records and valid
        /// records with bits flipped: what decodes re-encodes to its bytes
        /// and holds no more fields than they can, and anything else is
        /// `Corrupt`.
        #[test]
        fn records_decode_totally(
            (noise, fields, flips) in (
                proptest::collection::vec(proptest::prelude::any::<u8>(), 0..600),
                proptest::collection::vec((0u8..4, proptest::prelude::any::<u32>(), 0usize..40), 0..20),
                proptest::collection::vec(proptest::prelude::any::<u32>(), 1..6),
            )
        ) {
            let check = |bytes: &[u8]| match decode(bytes) {
                Ok(fields) => {
                    assert!(fields.capacity() <= bytes.len() / MIN_FIELD);
                    assert_eq!(encode(&fields).unwrap(), bytes);
                }
                Err(e) => assert!(matches!(e, RecordError::Corrupt(_)), "{e}"),
            };
            check(&noise);
            let values: Vec<Value> = fields
                .iter()
                .map(|&(kind, root_page, len)| match StorageKind::from_u8(kind) {
                    Some(kind) => Value::Long(LongHandle { kind, root_page }),
                    None => Value::short(vec![kind; len]),
                })
                .collect();
            let mut bytes = encode(&values).unwrap();
            assert_eq!(decode(&bytes).unwrap(), values);
            for bit in &flips {
                let bit = *bit as usize % (bytes.len() * 8);
                bytes[bit / 8] ^= 1 << (bit % 8);
            }
            check(&bytes);
        }
    }

    #[test]
    fn accessors_enforce_types() {
        let s = Value::short(b"s".to_vec());
        let l = Value::Long(LongHandle {
            kind: StorageKind::Esm,
            root_page: 1,
        });
        assert!(s.as_short().is_ok() && s.as_long().is_err());
        assert!(l.as_long().is_ok() && l.as_short().is_err());
    }

    #[test]
    fn storage_kind_tags_are_stable() {
        for kind in [StorageKind::Esm, StorageKind::Eos, StorageKind::Starburst] {
            assert_eq!(StorageKind::from_u8(kind.as_u8()), Some(kind));
        }
        assert_eq!(StorageKind::from_u8(0), None);
        assert_eq!(StorageKind::from_u8(9), None);
    }
}
