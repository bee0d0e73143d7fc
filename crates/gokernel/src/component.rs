//! Go! components: types, instances, and the 32-byte interface descriptor.
//!
//! > "The unit of protection in SISR is the *component*, which is protected
//! > through its own data segment and is of a given type (which has its own
//! > \[code\] segment)."
//!
//! The paper's space claim — "the space required per component is just
//! 32 bytes for each interface ... around two orders of magnitude improvement
//! over page-based protection models" — is embodied by
//! [`InterfaceDescriptor`]: exactly 32 bytes, with a binary encoding (used
//! by the tests) to prove nothing is hidden elsewhere.

use crate::sisr::VerifiedImage;
use machine::seg::Selector;

/// Identifies a loaded component type (owns the code segment).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TypeId(pub u32);

/// Identifies a component instance (owns a data segment).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ComponentId(pub u32);

/// Identifies a published interface on a component instance.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct InterfaceId(pub u32);

/// A component *type*: verified text plus its installed code segment.
#[derive(Debug, Clone)]
pub(crate) struct ComponentType {
    /// Stable identifier.
    pub id: TypeId,
    /// The SISR-verified text. The ORB refuses anything else.
    pub image: VerifiedImage,
    /// The code segment selector the text lives in.
    pub code_sel: Selector,
}

/// A component *instance*: a data segment bound to a type.
#[derive(Debug, Clone)]
pub(crate) struct ComponentInstance {
    /// The type whose code this instance runs.
    pub type_id: TypeId,
    /// The instance's private data segment.
    pub data_sel: Selector,
    /// The stack segment threads use while executing in this instance.
    pub stack_sel: Selector,
}

/// Access rights on an interface.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Rights(pub u32);

impl Rights {
    /// May be invoked by any component.
    pub const PUBLIC: Rights = Rights(1);
    /// May only be invoked by components named in the binding.
    pub(crate) const BOUND_ONLY: Rights = Rights(2);

    /// Whether a caller with `caller_rights` may invoke.
    #[must_use]
    pub(crate) fn permits(self, bound: bool) -> bool {
        self == Rights::PUBLIC || (self == Rights::BOUND_ONLY && bound)
    }
}

/// The ORB's per-interface protection state: **exactly 32 bytes**, the
/// paper's headline space figure.
///
/// Layout (little-endian words):
/// `code_sel:u16 | data_sel:u16 | stack_sel:u16 | arg_words:u16 |
///  entry:u32 | type_id:u32 | iface_id:u32 | rights:u32 | reserved:u64`
/// — 32 bytes, pinned by the tests' `encode` length and round trip. The
/// ORB's memory accounting charges [`DESCRIPTOR_BYTES`] per interface.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct InterfaceDescriptor {
    /// Code segment of the serving component's type.
    pub code_sel: Selector,
    /// Data segment of the serving instance.
    pub data_sel: Selector,
    /// Stack segment threads borrow while inside the instance.
    pub stack_sel: Selector,
    /// Entry point: instruction index in the type's text.
    pub entry: u32,
    /// Serving type (for type checking the call).
    pub type_id: TypeId,
    /// The interface this descriptor serves.
    pub iface_id: InterfaceId,
    /// Access rights.
    pub rights: Rights,
    /// Number of 32-bit argument words the entry expects.
    pub arg_words: u16,
}

/// Size in bytes of an encoded descriptor — the paper's "32 bytes for each
/// interface".
pub const DESCRIPTOR_BYTES: usize = 32;

impl InterfaceDescriptor {
    /// Encode to the 32-byte wire/table form.
    #[cfg(test)]
    fn encode(&self) -> [u8; DESCRIPTOR_BYTES] {
        let mut out = [0u8; DESCRIPTOR_BYTES];
        out[0..2].copy_from_slice(&self.code_sel.0.to_le_bytes());
        out[2..4].copy_from_slice(&self.data_sel.0.to_le_bytes());
        out[4..6].copy_from_slice(&self.stack_sel.0.to_le_bytes());
        out[6..8].copy_from_slice(&self.arg_words.to_le_bytes());
        out[8..12].copy_from_slice(&self.entry.to_le_bytes());
        out[12..16].copy_from_slice(&self.type_id.0.to_le_bytes());
        out[16..20].copy_from_slice(&self.iface_id.0.to_le_bytes());
        out[20..24].copy_from_slice(&self.rights.0.to_le_bytes());
        // bytes 24..32 reserved (zero) — room for future capabilities.
        out
    }

    /// Decode from the 32-byte form.
    #[cfg(test)]
    fn decode(b: &[u8; DESCRIPTOR_BYTES]) -> Self {
        let u16at = |i: usize| u16::from_le_bytes([b[i], b[i + 1]]);
        let u32at = |i: usize| u32::from_le_bytes([b[i], b[i + 1], b[i + 2], b[i + 3]]);
        Self {
            code_sel: Selector(u16at(0)),
            data_sel: Selector(u16at(2)),
            stack_sel: Selector(u16at(4)),
            arg_words: u16at(6),
            entry: u32at(8),
            type_id: TypeId(u32at(12)),
            iface_id: InterfaceId(u32at(16)),
            rights: Rights(u32at(20)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> InterfaceDescriptor {
        InterfaceDescriptor {
            code_sel: Selector(3),
            data_sel: Selector(7),
            stack_sel: Selector(9),
            entry: 128,
            type_id: TypeId(5),
            iface_id: InterfaceId(11),
            rights: Rights::PUBLIC,
            arg_words: 4,
        }
    }

    #[test]
    fn descriptor_is_exactly_32_bytes() {
        assert_eq!(sample().encode().len(), 32);
        assert_eq!(DESCRIPTOR_BYTES, 32);
    }

    #[test]
    fn descriptor_roundtrips() {
        let d = sample();
        assert_eq!(InterfaceDescriptor::decode(&d.encode()), d);
    }

    #[test]
    fn rights_semantics() {
        assert!(Rights::PUBLIC.permits(false));
        assert!(Rights::PUBLIC.permits(true));
        assert!(!Rights::BOUND_ONLY.permits(false));
        assert!(Rights::BOUND_ONLY.permits(true));
    }

    #[test]
    fn reserved_bytes_are_zero() {
        let enc = sample().encode();
        assert!(enc[24..32].iter().all(|&b| b == 0));
    }
}
