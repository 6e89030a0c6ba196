// Package kvstore implements the two storage engines behind the paper's
// real-world applications (§5.3): a sharded in-memory hash store standing
// in for Memcached, and a small log-structured merge store standing in for
// RocksDB. Both are real data structures — requests execute genuine
// lookups, inserts and range scans — while their CPU demand in virtual time
// comes from the measured service-time distributions the paper reports.
package kvstore

import (
	"strconv"

	"skyloft/internal/det"
)

// Memcache is a sharded open-addressing string store, the light-tailed
// workload server (USR mix: 99.8% GET / 0.2% SET).
type Memcache struct {
	shards []map[string]string
}

// NewMemcache creates a store with the given shard count.
func NewMemcache(shards int) *Memcache {
	if shards <= 0 {
		shards = 16
	}
	m := &Memcache{shards: make([]map[string]string, shards)}
	for i := range m.shards {
		m.shards[i] = make(map[string]string)
	}
	return m
}

func (m *Memcache) shard(key string) map[string]string {
	return m.shards[det.FNVString(det.FNVOffset, key)%uint64(len(m.shards))]
}

// Get looks a key up.
func (m *Memcache) Get(key string) (string, bool) {
	v, ok := m.shard(key)[key]
	return v, ok
}

// Set stores a value.
func (m *Memcache) Set(key, value string) {
	m.shard(key)[key] = value
}

// Len reports the number of stored keys.
func (m *Memcache) Len() int {
	n := 0
	for _, s := range m.shards {
		n += len(s)
	}
	return n
}

// Preload fills the store with n sequential keys ("key-%d").
func (m *Memcache) Preload(n int) {
	for i := 0; i < n; i++ {
		d := strconv.Itoa(i)
		m.Set("key-"+d, "value-"+d)
	}
}
