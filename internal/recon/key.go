package recon

import (
	"fmt"
	"math"

	"fillvoid/internal/pointcloud"
)

// CloudHash is a 64-bit content fingerprint of a sampled cloud. Two
// clouds with the same attribute name, point sequence and value
// sequence hash equal; serving layers use it to key plan caches and to
// let clients reference an uploaded cloud without resending it.
type CloudHash uint64

// String renders the hash as fixed-width hex, the wire form used by the
// HTTP service's cloud_id fields.
func (h CloudHash) String() string { return fmt.Sprintf("%016x", uint64(h)) }

// ParseCloudHash inverts String.
func ParseCloudHash(s string) (CloudHash, error) {
	var v uint64
	if _, err := fmt.Sscanf(s, "%016x", &v); err != nil {
		return 0, fmt.Errorf("recon: bad cloud hash %q: %w", s, err)
	}
	return CloudHash(v), nil
}

// FNV-1a parameters, inlined so hashing a multi-million-point cloud
// needs no per-word interface calls or allocations.
const (
	fnvOffset64 = 14695981039346656037
	fnvPrime64  = 1099511628211
)

func fnvMix(h, x uint64) uint64 {
	for i := 0; i < 8; i++ {
		h ^= x & 0xff
		h *= fnvPrime64
		x >>= 8
	}
	return h
}

// HashCloud fingerprints the cloud's name, points and values with
// FNV-1a over their IEEE-754 bit patterns. The hash is deterministic
// across processes and platforms, so it is safe to persist or exchange.
func HashCloud(c *pointcloud.Cloud) CloudHash {
	h := uint64(fnvOffset64)
	for i := 0; i < len(c.Name); i++ {
		h ^= uint64(c.Name[i])
		h *= fnvPrime64
	}
	h = fnvMix(h, uint64(len(c.Points)))
	for _, p := range c.Points {
		h = fnvMix(h, math.Float64bits(p.X))
		h = fnvMix(h, math.Float64bits(p.Y))
		h = fnvMix(h, math.Float64bits(p.Z))
	}
	for _, v := range c.Values {
		h = fnvMix(h, math.Float64bits(v))
	}
	return CloudHash(h)
}

// PlanKey identifies the (cloud, GridSpec) pair a Plan was built over.
// It is a comparable value type, usable directly as a map key; plan
// caches evict and look up by it.
type PlanKey struct {
	Cloud CloudHash
	Spec  GridSpec
}

// Hash folds the key into a single placement hash: FNV-1a over the
// cloud fingerprint and every GridSpec field's bit pattern. Two
// processes computing Hash for the same (cloud, spec) agree exactly,
// which is what lets a cluster of replicas route a plan key to its
// owner by hashing locally instead of asking anyone. Distinct from the
// Go map hash of PlanKey, which is per-process.
func (k PlanKey) Hash() uint64 {
	h := uint64(fnvOffset64)
	h = fnvMix(h, uint64(k.Cloud))
	h = fnvMix(h, uint64(int64(k.Spec.NX)))
	h = fnvMix(h, uint64(int64(k.Spec.NY)))
	h = fnvMix(h, uint64(int64(k.Spec.NZ)))
	h = fnvMix(h, math.Float64bits(k.Spec.Origin.X))
	h = fnvMix(h, math.Float64bits(k.Spec.Origin.Y))
	h = fnvMix(h, math.Float64bits(k.Spec.Origin.Z))
	h = fnvMix(h, math.Float64bits(k.Spec.Spacing.X))
	h = fnvMix(h, math.Float64bits(k.Spec.Spacing.Y))
	h = fnvMix(h, math.Float64bits(k.Spec.Spacing.Z))
	return h
}

// KeyOf computes the cache key for a (cloud, spec) pair. Cost is one
// linear pass over the cloud — cheap next to building any of the plan's
// lazy pieces.
func KeyOf(c *pointcloud.Cloud, spec GridSpec) PlanKey {
	return PlanKey{Cloud: HashCloud(c), Spec: spec}
}

// PlanStats reports which of a plan's lazy pieces have been built and an
// estimate of the heap bytes the plan retains. Cache layers use it as
// their eviction hook: weigh entries by Bytes, export the totals as
// gauges, and log what an eviction actually frees.
type PlanStats struct {
	// CloudPoints is the number of samples the plan indexes.
	CloudPoints int
	// TreeBuilt reports whether the shared k-d tree has been built.
	TreeBuilt bool
	// NearestTableBuilt reports whether the full-grid nearest-sample
	// table has been built.
	NearestTableBuilt bool
	// MemoEntries counts per-method memoized states (e.g. a Delaunay
	// tetrahedralization).
	MemoEntries int
	// Bytes estimates the retained heap: cloud storage, tree index
	// arrays, the nearest table, and every built memo value that
	// reports its size through a Bytes() int64 method (the Delaunay
	// tetrahedralization does).
	Bytes int64
}

// Stats snapshots the plan's build state. Safe for concurrent use with
// reconstructions running against the plan.
func (p *Plan) Stats() PlanStats {
	s := PlanStats{CloudPoints: p.cloud.Len()}
	// 24 bytes per Vec3 + 8 per value.
	s.Bytes = int64(p.cloud.Len()) * 32
	if p.treeBuilt.Load() {
		s.TreeBuilt = true
		// idx int32 + axis int8 + the px/py/pz coordinate copy per
		// point (the points slice itself is shared with the cloud).
		s.Bytes += int64(p.cloud.Len()) * 29
	}
	if p.nearBuilt.Load() {
		s.NearestTableBuilt = true
		// int32 index + float64 distance per grid node.
		s.Bytes += int64(p.spec.Len()) * 12
	}
	p.memoMu.Lock()
	s.MemoEntries = len(p.memo)
	for _, e := range p.memo {
		s.Bytes += e.bytes.Load()
	}
	p.memoMu.Unlock()
	return s
}
