package route

import (
	"sort"
	"strconv"
)

// ring is a consistent-hash ring over the replica set: every replica
// contributes VNodes points (FNV-64a of "url#vnode"), and a session ID
// is owned by the first point clockwise from its own hash. Stickiness
// is the goal — per-session state on a replica (explain caches, shard
// ordering) survives as long as the replica does — and virtual nodes
// keep ownership spread even across a small fleet. The ring is built
// once at router construction and never mutated, so lookups are
// lock-free.
type ring struct {
	points []ringPoint
	n      int // replica count
}

type ringPoint struct {
	hash uint64
	idx  int
}

// fnv64 hashes s and finalizes with a 64-bit avalanche mixer. Raw
// FNV-64a diffuses trailing-byte differences poorly: replica URLs that
// differ only in the port digit (the common local-fleet layout) land
// their vnode points in tight clusters, and a two-replica ring can
// leave one replica owning almost nothing. The mixer spreads every
// input bit across the whole word, which is what ring placement needs.
// FNV-1a runs inline, bit for bit the hash/fnv one, so a lookup per row
// allocates neither a hasher nor a copy of s.
func fnv64(s string) uint64 {
	x := uint64(14695981039346656037) // FNV-64 offset basis
	for i := 0; i < len(s); i++ {
		x ^= uint64(s[i])
		x *= 1099511628211 // FNV-64 prime
	}
	x ^= x >> 33
	x *= 0xff51afd7ed558ccd
	x ^= x >> 33
	x *= 0xc4ceb9fe1a85ec53
	x ^= x >> 33
	return x
}

// buildRing lays vnodes points per replica URL on the ring. Ties (two
// points hashing identically) break by replica index so the layout is
// deterministic for any URL set.
func buildRing(urls []string, vnodes int) ring {
	pts := make([]ringPoint, 0, len(urls)*vnodes)
	for i, u := range urls {
		for v := 0; v < vnodes; v++ {
			pts = append(pts, ringPoint{hash: fnv64(u + "#" + strconv.Itoa(v)), idx: i})
		}
	}
	sort.Slice(pts, func(a, b int) bool {
		if pts[a].hash != pts[b].hash {
			return pts[a].hash < pts[b].hash
		}
		return pts[a].idx < pts[b].idx
	})
	return ring{points: pts, n: len(urls)}
}

// owner returns the replica index owning the session ID: the first ring
// point at or clockwise past the ID's hash, wrapping at the top.
func (rg ring) owner(id string) int {
	h := fnv64(id)
	i := sort.Search(len(rg.points), func(k int) bool { return rg.points[k].hash >= h })
	if i == len(rg.points) {
		i = 0
	}
	return rg.points[i].idx
}
