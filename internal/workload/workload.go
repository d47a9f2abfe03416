// Package workload generates the LLC-miss address streams of the paper's
// Table II cloud services. Under ORAM every miss becomes a uniformly random
// tree path, so the only workload property that affects any result is the
// miss trace's locality signature — which is exactly what each generator
// reproduces (DESIGN.md §1):
//
//	mcf    — route planning: pointer chasing with short sequential bursts
//	lbm    — fluid dynamics: long strided streaming sweeps
//	pr     — PageRank on a power-law graph: Zipfian vertex loads mixed with
//	         sequential edge streaming
//	motif  — temporal motif mining: localized random walks over edge lists
//	rm1    — memory-bound DLRM: Zipfian embedding-row gathers (long rows)
//	rm2    — balanced DLRM: shorter rows, milder skew, denser reuse
//	llm    — GPT-2 token embeddings: Zipfian token ids, a whole embedding
//	         row (48 lines) streamed per token
//	redis  — KV access: Zipfian keys over a large keyspace, small values
//	stm    — synthetic streaming: consecutive cache lines (perfect locality)
//	rand   — synthetic uniform random (zero locality)
//
// Addresses are cache-line indices within the protected space.
package workload

import (
	"fmt"

	"palermo/internal/rng"
)

// Generator produces an infinite LLC-miss stream.
type Generator interface {
	// Next returns the missing cache-line address and whether it is a store.
	Next() (pa uint64, write bool)
	// Name returns the Table II short name.
	Name() string
}

// Names lists the Table II workloads in paper order.
func Names() []string {
	return []string{"mcf", "lbm", "pr", "motif", "rm1", "rm2", "llm", "redis", "stm", "rand"}
}

// New builds the named generator over a space of nLines cache lines.
func New(name string, nLines uint64, seed uint64) (Generator, error) {
	r := rng.New(seed ^ hashName(name))
	switch name {
	case "mcf":
		return newPointerChase(name, nLines, r, 4, 0.30), nil
	case "lbm":
		return newStream(name, nLines, r, 16, 3), nil
	case "pr":
		return newGraph(name, nLines, r, 0.99, 2), nil
	case "motif":
		return newGraph(name, nLines, r, 0.8, 3), nil
	case "rm1":
		return newEmbedding(name, nLines, r, 32, 0.9), nil
	case "rm2":
		return newEmbedding(name, nLines, r, 8, 0.7), nil
	case "llm":
		return newEmbedding(name, nLines, r, 48, 1.0), nil
	case "redis":
		return newKV(name, nLines, r, 0.99), nil
	case "stm":
		return newStream(name, nLines, r, 1<<20, 1), nil
	case "rand":
		return newUniform(name, nLines, r), nil
	default:
		return nil, fmt.Errorf("workload: unknown workload %q (see Names())", name)
	}
}

func hashName(s string) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 1099511628211
	}
	return h
}

// uniform: every line equally likely (rand).
type uniform struct {
	name   string
	nLines uint64
	r      *rng.Rand
}

func newUniform(name string, n uint64, r *rng.Rand) *uniform {
	return &uniform{name: name, nLines: n, r: r}
}

func (g *uniform) Name() string { return g.name }

func (g *uniform) Next() (uint64, bool) {
	return g.r.Uint64n(g.nLines), g.r.Float64() < 0.2
}

// stream: sequential runs of runLen lines with the given stride, restarting
// at a random region when a run ends (stm, lbm).
type stream struct {
	name   string
	nLines uint64
	r      *rng.Rand
	runLen uint64
	stride uint64
	cur    uint64
	left   uint64
}

func newStream(name string, n uint64, r *rng.Rand, runLen, stride uint64) *stream {
	return &stream{name: name, nLines: n, r: r, runLen: runLen, stride: stride}
}

func (g *stream) Name() string { return g.name }

func (g *stream) Next() (uint64, bool) {
	if g.left == 0 {
		g.cur = g.r.Uint64n(g.nLines)
		g.left = g.runLen
	}
	pa := g.cur % g.nLines
	g.cur += g.stride
	g.left--
	return pa, g.r.Float64() < 0.3
}

// pointerChase: mcf-style — mostly dependent random hops, with occasional
// short sequential bursts (spatial locality of struct fields).
type pointerChase struct {
	name     string
	nLines   uint64
	r        *rng.Rand
	burstLen int
	pBurst   float64
	cur      uint64
	burst    int
}

func newPointerChase(name string, n uint64, r *rng.Rand, burstLen int, pBurst float64) *pointerChase {
	return &pointerChase{name: name, nLines: n, r: r, burstLen: burstLen, pBurst: pBurst}
}

func (g *pointerChase) Name() string { return g.name }

func (g *pointerChase) Next() (uint64, bool) {
	if g.burst > 0 {
		g.burst--
		g.cur = (g.cur + 1) % g.nLines
		return g.cur, false
	}
	g.cur = g.r.Uint64n(g.nLines)
	if g.r.Float64() < g.pBurst {
		g.burst = g.burstLen - 1
	}
	return g.cur, g.r.Float64() < 0.1
}

// graph: pr/motif-style — Zipfian vertex-property loads (power-law degree
// distribution) interleaved with short sequential edge-list scans.
type graph struct {
	name    string
	nLines  uint64
	r       *rng.Rand
	zip     *rng.Zipf
	edgeLen int
	vtxPart uint64 // vertex property region size in lines
	scan    int
	edgePos uint64
}

func newGraph(name string, n uint64, r *rng.Rand, theta float64, edgeLen int) *graph {
	vtx := n / 4 // a quarter of the space holds vertex properties
	if vtx == 0 {
		vtx = 1
	}
	return &graph{
		name: name, nLines: n, r: r,
		zip:     rng.NewZipf(r, vtx, theta),
		edgeLen: edgeLen, vtxPart: vtx,
	}
}

func (g *graph) Name() string { return g.name }

func (g *graph) Next() (uint64, bool) {
	if g.scan > 0 {
		g.scan--
		g.edgePos++
		return g.vtxPart + g.edgePos%(g.nLines-g.vtxPart), false
	}
	if g.r.Float64() < 0.4 {
		// Jump to a new edge-list region and scan it.
		g.edgePos = g.r.Uint64n(g.nLines - g.vtxPart)
		g.scan = g.edgeLen - 1
		return g.vtxPart + g.edgePos, false
	}
	return g.zip.Next(), g.r.Float64() < 0.3
}

// embedding: DLRM/LLM-style — a Zipfian row id selects an embedding row of
// rowLines consecutive cache lines, all streamed per lookup.
type embedding struct {
	name     string
	nLines   uint64
	r        *rng.Rand
	zip      *rng.Zipf
	rowLines uint64
	rows     uint64
	row      uint64
	off      uint64
}

func newEmbedding(name string, n uint64, r *rng.Rand, rowLines uint64, theta float64) *embedding {
	rows := n / rowLines
	if rows == 0 {
		rows = 1
	}
	return &embedding{
		name: name, nLines: n, r: r,
		zip: rng.NewZipf(r, rows, theta), rowLines: rowLines, rows: rows,
	}
}

func (g *embedding) Name() string { return g.name }

func (g *embedding) Next() (uint64, bool) {
	if g.off == 0 {
		g.row = g.zip.Next()
	}
	pa := (g.row*g.rowLines + g.off) % g.nLines
	g.off = (g.off + 1) % g.rowLines
	return pa, false
}

// RowLines returns the embedding row length of a workload (0 if it has no
// row structure). Fig 13 relates the best prefetch length to this.
func RowLines(name string) uint64 {
	switch name {
	case "rm1":
		return 32
	case "rm2":
		return 8
	case "llm":
		return 48
	default:
		return 0
	}
}

// kv: redis-style — Zipfian key popularity over the whole space, reads
// dominate, values one line.
type kv struct {
	name   string
	nLines uint64
	r      *rng.Rand
	zip    *rng.Zipf
	perm   []uint32 // scatter popular keys across the space
}

func newKV(name string, n uint64, r *rng.Rand, theta float64) *kv {
	// Scatter the popularity ranks through the address space with an
	// affine permutation so hot keys are not physically adjacent.
	return &kv{name: name, nLines: n, r: r, zip: rng.NewZipf(r, n, theta)}
}

func (g *kv) Name() string { return g.name }

func (g *kv) Next() (uint64, bool) {
	rank := g.zip.Next()
	// Affine scatter: rank -> (rank * oddConst) mod n.
	pa := (rank * 2654435761) % g.nLines
	return pa, g.r.Float64() < 0.15
}

// Locality measures the fraction of accesses within dist lines of the
// previous access over n draws (generator characterization).
func Locality(g Generator, n int, dist uint64) float64 {
	var prev uint64
	near := 0
	for i := 0; i < n; i++ {
		pa, _ := g.Next()
		if i > 0 {
			d := pa - prev
			if pa < prev {
				d = prev - pa
			}
			if d <= dist {
				near++
			}
		}
		prev = pa
	}
	return float64(near) / float64(n-1)
}

// UniqueFrac returns the fraction of distinct addresses over n draws
// (reuse characterization).
func UniqueFrac(g Generator, n int) float64 {
	seen := make(map[uint64]bool, n)
	for i := 0; i < n; i++ {
		pa, _ := g.Next()
		seen[pa] = true
	}
	return float64(len(seen)) / float64(n)
}
