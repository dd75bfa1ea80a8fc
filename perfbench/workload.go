package main

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math/rand"
	"slices"

	"github.com/secarchive/sec/internal/transport"
	"github.com/secarchive/sec/internal/workload"
)

// opKind is one kind of client operation the benchmark issues.
type opKind int

const (
	opCommit   opKind = iota // secclient Commit
	opRetrieve               // secclient Retrieve of a named version
	opHistory                // secclient RetrieveAll (the whole history up to a version)
	opLatest                 // secclient Latest
	opLog                    // secclient Log
	numOps
)

var opNames = [numOps]string{"commit", "retrieve", "history", "latest", "log"}

func (k opKind) String() string { return opNames[k] }

// The archive shape every workload uses: (12,10) BasicSEC over a
// non-systematic Cauchy code with 4096-byte blocks, so objects are 40 KiB
// and every γ ≤ 3 delta (2γ < k) is sparse-decodable.
const (
	codeN     = 12
	codeK     = 10
	blockSize = 4096
	objectLen = codeK * blockSize
	maxGamma  = 3     // edits draw γ uniformly from 1..maxGamma
	zipfS     = 1.2   // archive popularity skew
	zipfV     = 1.0   // rand.NewZipf's v parameter
	recentMax = 3     // commit-mixed retrieves reach back at most this many versions from the tip
	nodeCount = codeN // one storage node per shard row
)

// workloadSpec defines one benchmark workload: the archives it seeds, the
// closed-loop clients that drive it, and the op mix they draw from.
type workloadSpec struct {
	name     string
	archives int // archives created during set-up
	versions int // versions committed to each archive during set-up
	clients  int // closed-loop callers, each with its own secclient
	// rate is the workload's throughput in ops/s on the reference machine
	// (2 vCPUs, data on tmpfs). A run of s seconds issues s*rate ops,
	// however fast the program is, so every run does the same work: in
	// commit-mixed, where per-commit costs grow with an archive's history,
	// a faster program must not be handed longer histories.
	rate float64
	spec transport.ArchiveSpec
	mix  [numOps]int // relative weights of the op kinds
	// primary is the op the workload exists to stress; its p50 is the
	// primary_p50_ms metric.
	primary opKind
	// warm reads every version once during set-up, so the measured phase
	// starts with the read cache full.
	warm bool
	// owned makes each client commit only to the archives it owns, so
	// every delta has exactly the planned sparsity and each client knows
	// its tips. Clients own alternate popularity ranks (rank r belongs to
	// client r mod clients), so how concentrated each client's commits
	// are does not depend on the seed: the hottest archive's history, and
	// with it the cost of a commit, grows the same way in every run.
	owned bool
}

func baseSpec() transport.ArchiveSpec {
	return transport.ArchiveSpec{
		Scheme:    "basic-sec",
		Code:      "non-systematic-cauchy",
		N:         codeN,
		K:         codeK,
		BlockSize: blockSize,
	}
}

// workloads lists the benchmark's workloads. Their names are stable: later
// measurements refer to them.
var workloads = []workloadSpec{
	// history-cold is the paper's workload: reads of old versions that
	// must be decoded through sparse delta chains. One client issues 75%
	// Retrieve of a uniformly drawn old version and 25% RetrieveAll of the
	// whole archive. The 256 KiB read cache holds about 6 of an archive's
	// 16 decoded versions, so the working set exceeds it and core sparse
	// decode (support search, GF multiply-add) dominates. RetrieveAll
	// never uses the cache.
	{
		name:     "history-cold",
		archives: 32,
		versions: 16,
		clients:  1,
		rate:     150,
		spec:     withCache(baseSpec(), 256<<10),
		mix:      mixOf(map[opKind]int{opRetrieve: 75, opHistory: 25}),
		primary:  opHistory,
	},
	// latest-hot serves reads from the gateway's shared read cache: the
	// 8 MiB cache holds every version, and a warm-up pass reads each one
	// before timing starts. Two clients issue 60% Latest, 30% Retrieve of
	// any version and 10% Log. The coding, cluster and node layers are
	// skipped, so what remains is secclient + transport framing of 40 KiB
	// replies and gateway dispatch.
	{
		name:     "latest-hot",
		archives: 8,
		versions: 8,
		clients:  2,
		rate:     8500,
		spec:     withCache(baseSpec(), 8<<20),
		mix:      mixOf(map[opKind]int{opLatest: 60, opRetrieve: 30, opLog: 10}),
		primary:  opLatest,
		warm:     true,
	},
	// commit-mixed puts writes beside reads on the production-like spec:
	// CDEC-compressed deltas, a 1 MiB read cache, and MaxChainLength 8 so
	// auto-compaction runs inline. Two clients issue 50% Commit (to owned
	// archives only), 25% Latest, 20% Retrieve of one of the newest
	// versions and 5% Log. The write path dominates: CDEC encode, PutBatch
	// fan-out, DiskNode writes, the local manifest write and n-way manifest
	// replication, plus compaction spikes. Every commit invalidates the
	// caches the reads hit, so a write-side gain that costs reads shows.
	{
		name:     "commit-mixed",
		archives: 16,
		versions: 4,
		clients:  2,
		rate:     350,
		spec: func() transport.ArchiveSpec {
			s := withCache(baseSpec(), 1<<20)
			s.CompressDeltas = true
			s.MaxChainLength = 8
			return s
		}(),
		mix:     mixOf(map[opKind]int{opCommit: 50, opLatest: 25, opRetrieve: 20, opLog: 5}),
		primary: opCommit,
		owned:   true,
	},
}

func withCache(s transport.ArchiveSpec, bytes int) transport.ArchiveSpec {
	s.ReadCacheBytes = bytes
	return s
}

func mixOf(weights map[opKind]int) [numOps]int {
	var mix [numOps]int
	for k, w := range weights {
		mix[k] = w
	}
	return mix
}

func lookupWorkload(name string) (*workloadSpec, error) {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i], nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

func archiveName(a int) string { return fmt.Sprintf("arc-%02d", a) }

// castagnoli is the CRC-32C table; the hardware-accelerated checksum keeps
// in-band verification of 40 KiB replies cheap next to the ops it checks.
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// payloadSum fingerprints an object: its CRC-32C and its length.
func payloadSum(b []byte) uint64 {
	return uint64(crc32.Checksum(b, castagnoli))<<32 | uint64(len(b))
}

// rngFor derives an independent deterministic stream from the run seed.
func rngFor(seed int64, stream int64) *rand.Rand {
	return rand.New(rand.NewSource(seed*1_000_003 + stream))
}

// deck deals its cards in shuffled rounds, each round holding every card
// once: the order is random, the shares are exact over every round. It
// deals sparsity levels, so archives do not differ in decode cost by the
// luck of the draw (with a zipf popularity one archive takes about a third
// of the reads, and the support search of a γ=3 delta costs twelve times
// that of a γ=1 delta), and op kinds, so every run has the mix's shares.
type deck[T any] struct {
	rng   *rand.Rand
	cards []T
	round []T
}

func (d *deck[T]) next() T {
	if len(d.round) == 0 {
		d.round = slices.Clone(d.cards)
		d.rng.Shuffle(len(d.round), func(i, j int) { d.round[i], d.round[j] = d.round[j], d.round[i] })
	}
	card := d.round[0]
	d.round = d.round[1:]
	return card
}

// gammaDeck deals γ uniformly from 1..maxGamma.
func gammaDeck(rng *rand.Rand) *deck[int] {
	d := &deck[int]{rng: rng}
	for g := 1; g <= maxGamma; g++ {
		d.cards = append(d.cards, g)
	}
	return d
}

// popularity draws archive indices under a Zipf law. The ranking (which
// archive is hottest) comes from the seed and is shared by every client,
// since popularity belongs to the archives; each client draws from it
// with its own stream.
type popularity struct {
	zipf *rand.Zipf
	rank []int
}

func newPopularity(rng *rand.Rand, rank []int) *popularity {
	return &popularity{zipf: rand.NewZipf(rng, zipfS, zipfV, uint64(len(rank)-1)), rank: rank}
}

func (p *popularity) sample() int { return p.rank[p.zipf.Uint64()] }

// seedArchives generates the set-up payloads: versions[a][v-1] is version
// v of archive a. The same seed always yields the same payloads.
func seedArchives(w *workloadSpec, seed int64) ([][][]byte, error) {
	rng := rngFor(seed, 0)
	out := make([][][]byte, w.archives)
	for a := range out {
		first := make([]byte, objectLen)
		rng.Read(first)
		out[a] = [][]byte{first}
		g := gammaDeck(rng)
		for v := 1; v < w.versions; v++ {
			next, err := workload.SparseEdit(rng, out[a][v-1], blockSize, g.next())
			if err != nil {
				return nil, err
			}
			out[a] = append(out[a], next)
		}
	}
	return out, nil
}

// op is one planned client operation.
type op struct {
	kind    opKind
	archive int
	// version is the version a Retrieve names, or the version a Commit
	// is expected to create; 0 elsewhere (Latest, RetrieveAll of the tip).
	version int
	// back is, for commit-mixed Retrieve, how far behind the tip known at
	// issue time the named version is; the version is resolved then.
	back    int
	payload []byte // commit payload
	sum     uint64 // payloadSum(payload) for commits
}

// planner generates one client's op stream from the seed. It is a pure
// function of (workload, seed, client): the system only ever receives
// what it generates.
type planner struct {
	w      *workloadSpec
	rng    *rand.Rand
	kinds  *deck[opKind] // one card per unit of mix weight
	pop    *popularity
	gammas *deck[int]
	tips   map[int][]byte // owned archive -> newest payload
	count  map[int]int    // owned archive -> versions after planned commits
}

func newPlanner(w *workloadSpec, seed int64, client int, seeded [][][]byte) *planner {
	rng := rngFor(seed, int64(1+client))
	p := &planner{
		w:      w,
		rng:    rng,
		kinds:  &deck[opKind]{rng: rng},
		pop:    newPopularity(rng, rngFor(seed, -1).Perm(w.archives)),
		gammas: gammaDeck(rng),
		tips:   map[int][]byte{},
		count:  map[int]int{},
	}
	for k, weight := range w.mix {
		for range weight {
			p.kinds.cards = append(p.kinds.cards, opKind(k))
		}
	}
	for r, a := range p.pop.rank {
		if w.mix[opCommit] > 0 && (!w.owned || r%w.clients == client) {
			p.tips[a] = seeded[a][len(seeded[a])-1]
			p.count[a] = len(seeded[a])
		}
	}
	return p
}

func (p *planner) owns(a int) bool {
	_, ok := p.count[a]
	return ok
}

func (p *planner) next() (op, error) {
	kind := p.kinds.next()
	a := p.pop.sample()
	switch kind {
	case opCommit:
		for !p.owns(a) {
			a = p.pop.sample() // the popularity law restricted to owned archives
		}
		payload, err := workload.SparseEdit(p.rng, p.tips[a], blockSize, p.gammas.next())
		if err != nil {
			return op{}, err
		}
		p.tips[a] = payload
		p.count[a]++
		return op{kind: kind, archive: a, version: p.count[a], payload: payload, sum: payloadSum(payload)}, nil
	case opRetrieve:
		switch {
		case p.w.owned:
			return op{kind: kind, archive: a, back: p.rng.Intn(recentMax + 1)}, nil
		case p.w.primary == opHistory:
			// an old version: anything but the tip
			return op{kind: kind, archive: a, version: 1 + p.rng.Intn(p.w.versions-1)}, nil
		default:
			return op{kind: kind, archive: a, version: 1 + p.rng.Intn(p.w.versions)}, nil
		}
	default:
		return op{kind: kind, archive: a}, nil
	}
}

// planDigest hashes the first n planned ops of every client (op kind,
// archive, version, payload checksum): equal seeds must give equal digests.
func planDigest(w *workloadSpec, seed int64, n int) (string, error) {
	seeded, err := seedArchives(w, seed)
	if err != nil {
		return "", err
	}
	h := sha256.New()
	for a := range seeded {
		for _, v := range seeded[a] {
			_ = binary.Write(h, binary.LittleEndian, payloadSum(v))
		}
	}
	for c := 0; c < w.clients; c++ {
		p := newPlanner(w, seed, c, seeded)
		for i := 0; i < n; i++ {
			o, err := p.next()
			if err != nil {
				return "", err
			}
			_ = binary.Write(h, binary.LittleEndian, [5]int64{int64(o.kind), int64(o.archive), int64(o.version), int64(o.back), int64(o.sum)})
		}
	}
	return fmt.Sprintf("%x", h.Sum(nil)), nil
}
