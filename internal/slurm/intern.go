package slurm

// Interner deduplicates strings: one allocation per distinct value, not
// per sighting. It backs the zero-alloc byte decoder's free-form string
// columns and the columnar store's dictionary decode, so a user name
// appearing in twelve month shards materialises as one shared string.
// An Interner is not safe for concurrent use; give each decoder its own
// or serialise access externally.
type Interner struct {
	m map[string]string
}

// NewInterner returns an empty interner.
func NewInterner() *Interner {
	return &Interner{m: make(map[string]string)}
}

// Intern returns a string with b's bytes, allocating only on the first
// sighting of a value (while the cache has room). Past internCap the
// interner keeps returning correct strings but stops caching new ones.
func (in *Interner) Intern(b []byte) string {
	if len(b) == 0 {
		return ""
	}
	if s, ok := in.m[string(b)]; ok { // no alloc: map lookup on []byte key
		return s
	}
	s := string(b)
	if len(in.m) < internCap {
		in.m[s] = s
	}
	return s
}
