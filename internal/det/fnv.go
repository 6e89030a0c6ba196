package det

// FNV-1a, the digest behind every determinism witness in the simulator:
// the trace ring's event hash, the span hash, the causal tracer's state
// hash and the live bus's stream hash. Values are folded in as their eight
// little-endian bytes, strings and byte slices byte by byte.
const (
	FNVOffset uint64 = 14695981039346656037
	fnvPrime  uint64 = 1099511628211
)

// FNVMix folds v into the running digest h.
func FNVMix(h, v uint64) uint64 {
	for i := 0; i < 8; i++ {
		h ^= v & 0xFF
		h *= fnvPrime
		v >>= 8
	}
	return h
}

// FNVString folds the bytes of s into the running digest h.
func FNVString(h uint64, s string) uint64 {
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= fnvPrime
	}
	return h
}

// FNVBytes folds the bytes of b into the running digest h.
func FNVBytes(h uint64, b []byte) uint64 {
	for _, c := range b {
		h ^= uint64(c)
		h *= fnvPrime
	}
	return h
}
