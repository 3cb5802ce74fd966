package relation

import (
	"encoding/binary"
	"strings"
)

// Tuple is a row of a relation: one string value per schema attribute,
// positionally aligned with Schema.Attrs.
type Tuple []string

// Clone returns a deep copy of the tuple.
func (t Tuple) Clone() Tuple {
	return append(Tuple(nil), t...)
}

// Equal reports positional equality of two tuples.
func (t Tuple) Equal(o Tuple) bool {
	if len(t) != len(o) {
		return false
	}
	for i := range t {
		if t[i] != o[i] {
			return false
		}
	}
	return true
}

// Project returns the sub-tuple at the given positions (a fresh slice).
func (t Tuple) Project(idx []int) Tuple {
	out := make(Tuple, len(idx))
	for i, j := range idx {
		out[i] = t[j]
	}
	return out
}

// AppendKey appends the injective map-key encoding of vals to b: each
// value is framed by its uvarint length, so the encoding of a vector is
// unambiguous for arbitrary values — separator-joined keys collide as
// soon as a value contains the separator, which real data is free to do
// (distcfdvet's keyjoin analyzer bans them). Every grouping key,
// dedup key and content fingerprint in the module is built from it.
func AppendKey(b []byte, vals ...string) []byte {
	for _, v := range vals {
		b = binary.AppendUvarint(b, uint64(len(v)))
		b = append(b, v...)
	}
	return b
}

// Key encodes the values at the given positions into a single string
// key suitable for map grouping (see AppendKey): injective for
// arbitrary values among keys built over the same positions.
func (t Tuple) Key(idx []int) string {
	if len(idx) == 1 {
		// One value needs no framing: identity is already injective.
		return t[idx[0]]
	}
	var n int
	for _, j := range idx {
		n += len(t[j]) + binary.MaxVarintLen32
	}
	b := make([]byte, 0, n)
	for _, j := range idx {
		b = AppendKey(b, t[j])
	}
	return string(b)
}

// canon is the full-width Key: an injective encoding of the whole
// tuple, for multiset comparison.
func (t Tuple) canon() string { return string(AppendKey(nil, t...)) }

// String renders the tuple as (v1, v2, ...).
func (t Tuple) String() string {
	return "(" + strings.Join(t, ", ") + ")"
}
