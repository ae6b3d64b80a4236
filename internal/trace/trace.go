// Package trace implements the measurement methodology of §4: the collection
// of per-process service logfiles from API and RPC servers, their record
// schema, the logname convention (production-<machine>-<proc>-<date>), CSV
// serialization, and tolerant parsing (≈1% of the original logs failed to
// parse; this reader skips corrupt lines and counts them).
//
// Storage and session records are retained losslessly (they feed the §5–§6
// analyses) in a delta-varint byte log of about thirty bytes a record, which
// decodes back to Records on demand; RPC spans are aggregated on the fly into
// per-RPC service-time reservoirs and per-shard time bins (the §7 analyses),
// because a month of spans would not fit in memory at full fidelity — exactly
// the reduction a production trace pipeline performs.
package trace

import (
	"encoding/binary"
	"sync"
	"time"

	"u1/internal/apiserver"
	"u1/internal/protocol"
	"u1/internal/rpc"
	"u1/internal/stats"
)

// Kind classifies records, mirroring the request types of §4.1
// (storage/storage_done, session, rpc).
type Kind uint8

// Record kinds.
const (
	KindStorage Kind = iota // completed API storage/metadata operation
	KindSession             // session open (Authenticate) / close events
	KindRPC                 // DAL RPC span
)

// Flags bits.
const (
	// FlagUpdate marks an upload that replaced existing content.
	FlagUpdate uint8 = 1 << iota
	// FlagDir marks an operation on a directory node.
	FlagDir
)

// Record is one trace line in compact form. Strings are interned through the
// collector's tables (server names, extensions); content hashes keep 64 bits,
// plenty for dedup counting at trace scale. A collector does not hold Records:
// it encodes each into its record log (recordStore) and decodes them again
// for Records and the logfile writer.
type Record struct {
	Time    int64 // unix nanoseconds
	Dur     int64 // service time in nanoseconds
	Session uint64
	User    uint64
	Volume  uint64
	Node    uint64
	HashLo  uint64 // first 8 bytes of the SHA-1 (0 = no content)
	Size    uint64
	Wire    uint64
	Kind    Kind
	Op      uint8 // protocol.Op for storage/session records
	RPC     uint8 // protocol.RPC for rpc records
	Status  uint8
	Proc    uint8
	Shard   int8 // -1 for non-RPC records
	Server  uint8
	Ext     uint8 // extension table index; 0 = none
	Flags   uint8
}

// When returns the record timestamp.
func (r *Record) When() time.Time { return time.Unix(0, r.Time) }

// Duration returns the record service time.
func (r *Record) Duration() time.Duration { return time.Duration(r.Dur) }

// IsUpdate reports the update flag.
func (r *Record) IsUpdate() bool { return r.Flags&FlagUpdate != 0 }

// IsDir reports whether the operation targeted a directory.
func (r *Record) IsDir() bool { return r.Flags&FlagDir != 0 }

// hashLo packs the hash prefix.
func hashLo(h protocol.Hash) uint64 {
	var v uint64
	for i := 0; i < 8; i++ {
		v = v<<8 | uint64(h[i])
	}
	return v
}

// chunkBytes is the capacity of one recordStore chunk: 64 KB hold about two
// thousand encoded records, small enough that the unfilled tail of the last
// chunk is noise and large enough that the chunk index stays a few hundred
// entries for a month of trace.
const chunkBytes = 64 << 10

// hasHash is the presence bit of HashLo in an encoded record's presence byte.
// Bits 0–4 mark Dur, Volume, Node, Size and Wire, in that order: the wide
// fields that are often zero and then take no byte at all.
const hasHash = 1 << 5

// fixedBytes is the fixed part of an encoded record: the presence byte and
// the nine one-byte fields.
const fixedBytes = 1 + 9

// maxRecordBytes bounds one encoded record: the fixed part, three zigzag
// deltas and five uvarints of at most ten bytes each, and the raw hash.
const maxRecordBytes = fixedBytes + 8*binary.MaxVarintLen64 + 8

// deltaBase is the record before the one being encoded or decoded, as far as
// the delta-coded fields go: consecutive records in arrival order are close in
// time and often share a session and user, so their differences take a byte
// or a few where the values take eight.
type deltaBase struct {
	time          int64
	session, user uint64
}

// encode appends r to b against the base and advances the base to r. The
// encoding is lossless for every value: the deltas wrap, so time going
// backwards (arrival order is not time order across generator shards) and IDs
// at math.MaxUint64 round-trip exactly.
func (d *deltaBase) encode(b []byte, r *Record) []byte {
	head := len(b)
	b = append(b, 0, uint8(r.Kind), r.Op, r.RPC, r.Status, r.Proc, uint8(r.Shard), r.Server, r.Ext, r.Flags)
	b = binary.AppendVarint(b, r.Time-d.time)
	b = binary.AppendVarint(b, int64(r.Session-d.session))
	b = binary.AppendVarint(b, int64(r.User-d.user))
	d.time, d.session, d.user = r.Time, r.Session, r.User
	var mask uint8
	for i, v := range [...]uint64{uint64(r.Dur), r.Volume, r.Node, r.Size, r.Wire} {
		if v != 0 {
			mask |= 1 << i
			b = binary.AppendUvarint(b, v)
		}
	}
	if r.HashLo != 0 {
		mask |= hasHash
		b = binary.LittleEndian.AppendUint64(b, r.HashLo)
	}
	b[head] = mask
	return b
}

// decode reads the record at the head of b into r against the base and
// advances the base to it, returning the bytes read. Every field of r is
// overwritten.
func (d *deltaBase) decode(b []byte, r *Record) int {
	mask := b[0]
	r.Kind, r.Op, r.RPC, r.Status, r.Proc = Kind(b[1]), b[2], b[3], b[4], b[5]
	r.Shard, r.Server, r.Ext, r.Flags = int8(b[6]), b[7], b[8], b[9]
	n := fixedBytes
	var delta [3]int64
	for i := range delta {
		v, k := binary.Varint(b[n:])
		delta[i], n = v, n+k
	}
	d.time += delta[0]
	d.session += uint64(delta[1])
	d.user += uint64(delta[2])
	r.Time, r.Session, r.User = d.time, d.session, d.user
	var wide [5]uint64
	for i := range wide {
		if mask&(1<<i) != 0 {
			v, k := binary.Uvarint(b[n:])
			wide[i], n = v, n+k
		}
	}
	r.Dur, r.Volume, r.Node, r.Size, r.Wire = int64(wide[0]), wide[1], wide[2], wide[3], wide[4]
	r.HashLo = 0
	if mask&hasHash != 0 {
		r.HashLo = binary.LittleEndian.Uint64(b[n:])
		n += 8
	}
	return n
}

// recordStore keeps records in arrival order as an append-only byte log, each
// record delta-encoded against the one before it (deltaBase), in fixed-size
// chunks of pointer-free bytes the garbage collector never scans. A chunk is
// allocated once and never copied, so collecting n records allocates about
// one chunk per two thousand records and nothing per record. Records are
// encoded in place: a chunk is closed when it has less room left than the
// largest record takes, so no record straddles two chunks and no append ever
// regrows one.
type recordStore struct {
	chunks [][]byte
	n      int
	base   deltaBase
}

func (s *recordStore) add(r *Record) {
	if k := len(s.chunks); k == 0 || chunkBytes-len(s.chunks[k-1]) < maxRecordBytes {
		s.chunks = append(s.chunks, make([]byte, 0, chunkBytes))
	}
	last := &s.chunks[len(s.chunks)-1]
	*last = s.base.encode(*last, r)
	s.n++
}

// each decodes every record in arrival order into one Record and calls fn on
// it, stopping at the first error. fn must not keep the pointer.
func (s *recordStore) each(fn func(*Record) error) error {
	var r Record
	var d deltaBase
	for _, chunk := range s.chunks {
		for off := 0; off < len(chunk); {
			off += d.decode(chunk[off:], &r)
			if err := fn(&r); err != nil {
				return err
			}
		}
	}
	return nil
}

// slice materializes the records as one slice of exactly their number.
func (s *recordStore) slice() []Record {
	if s.n == 0 {
		return nil
	}
	out := make([]Record, s.n)
	var d deltaBase
	i := 0
	for _, chunk := range s.chunks {
		for off := 0; off < len(chunk); i++ {
			off += d.decode(chunk[off:], &out[i])
		}
	}
	return out
}

// reset empties the store, keeping one chunk for the records to come; the
// next record is encoded against zero, as the first one was.
func (s *recordStore) reset() {
	if len(s.chunks) > 0 {
		clear(s.chunks[1:])
		s.chunks = s.chunks[:1]
		s.chunks[0] = s.chunks[0][:0]
	}
	s.n = 0
	s.base = deltaBase{}
}

// RPCAggregate is the streaming reduction of RPC spans.
type RPCAggregate struct {
	Start   time.Time
	Minutes int
	Shards  int

	Counts  []uint64 // per protocol.RPC
	Errs    []uint64
	Samples []*stats.Reservoir // service times in seconds, per protocol.RPC
	// ShardMinute[s][m] counts RPCs routed to shard s in trace minute m —
	// the Fig. 14 (bottom) input.
	ShardMinute [][]uint32
	// ProcTotal counts RPCs per DAL worker process.
	ProcTotal map[int]uint64
}

func newRPCAggregate(start time.Time, days, shards, reservoirCap int, seed int64) *RPCAggregate {
	n := len(protocol.RPCs())
	minutes := days * 24 * 60
	agg := &RPCAggregate{
		Start:       start,
		Minutes:     minutes,
		Shards:      shards,
		Counts:      make([]uint64, n),
		Errs:        make([]uint64, n),
		Samples:     make([]*stats.Reservoir, n),
		ShardMinute: make([][]uint32, shards),
		ProcTotal:   make(map[int]uint64),
	}
	for i := range agg.Samples {
		agg.Samples[i] = stats.NewReservoir(reservoirCap, seed+int64(i))
	}
	for s := range agg.ShardMinute {
		agg.ShardMinute[s] = make([]uint32, minutes)
	}
	return agg
}

func (a *RPCAggregate) observe(sp rpc.Span) {
	i := int(sp.RPC)
	if i >= len(a.Counts) {
		return
	}
	a.Counts[i]++
	if sp.Err != nil {
		a.Errs[i]++
	}
	a.Samples[i].Add(sp.Service.Seconds())
	a.ProcTotal[sp.Proc]++
	if sp.Shard >= 0 && sp.Shard < a.Shards {
		m := int(sp.Start.Sub(a.Start) / time.Minute)
		if m >= 0 && m < a.Minutes {
			a.ShardMinute[sp.Shard][m]++
		}
	}
}

// Config parameterizes a Collector.
type Config struct {
	// Start and Days bound the trace window (for time-binned aggregates).
	Start time.Time
	Days  int
	// Shards sizes the per-shard aggregation (default 10).
	Shards int
	// KeepRPCRecords additionally retains every RPC span as a Record. Only
	// sensible for small traces and tests.
	KeepRPCRecords bool
	// Seed drives reservoir sampling.
	Seed int64
}

// Collector subscribes to API servers and the RPC tier and accumulates the
// trace. It is safe for concurrent observation.
type Collector struct {
	cfg Config

	mu      sync.Mutex
	records recordStore
	rpcRecs recordStore
	rpcAgg  *RPCAggregate

	// stream, when non-nil, turns the record stores into per-epoch buffers:
	// Flush appends them to open logfiles and releases the memory. flushed
	// counts records already written so Len stays meaningful.
	stream  *streamState
	flushed uint64

	servers map[string]uint8
	srvTab  []string
	exts    map[string]uint8
	extTab  []string
}

// reservoirCap bounds the per-RPC service-time samples a collector keeps.
const reservoirCap = 20000

// NewCollector creates a collector for the given window.
func NewCollector(cfg Config) *Collector {
	if cfg.Shards <= 0 {
		cfg.Shards = 10
	}
	if cfg.Days <= 0 {
		cfg.Days = 30
	}
	seed := cfg.Seed
	if seed == 0 {
		seed = 1
	}
	cfg.Seed = seed
	c := &Collector{
		cfg:     cfg,
		rpcAgg:  newRPCAggregate(cfg.Start, cfg.Days, cfg.Shards, reservoirCap, seed),
		servers: make(map[string]uint8),
		exts:    make(map[string]uint8),
		extTab:  []string{""}, // index 0 = no extension
	}
	c.exts[""] = 0
	return c
}

func (c *Collector) serverIdx(name string) uint8 {
	if i, ok := c.servers[name]; ok {
		return i
	}
	i := uint8(len(c.srvTab))
	c.servers[name] = i
	c.srvTab = append(c.srvTab, name)
	return i
}

func (c *Collector) extIdx(ext string) uint8 {
	if i, ok := c.exts[ext]; ok {
		return i
	}
	if len(c.extTab) >= 255 {
		return 0 // extension table full; fold into "none"
	}
	i := uint8(len(c.extTab))
	c.exts[ext] = i
	c.extTab = append(c.extTab, ext)
	return i
}

// Servers returns the server name table.
func (c *Collector) Servers() []string {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]string(nil), c.srvTab...)
}

// Extensions returns the extension table (index 0 is the empty extension).
func (c *Collector) Extensions() []string {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]string(nil), c.extTab...)
}

// APIObserver returns the observer to register on API servers. It records
// one transfer per upload (§4.1): it drops, before locking, part fetches,
// every part but a completed upload's last, and a PutContent that opened a
// job, and records that last part, carrying the upload, as its PutContent.
func (c *Collector) APIObserver() apiserver.Observer {
	return func(e apiserver.Event) {
		switch e.Op {
		case protocol.OpGetPart:
			return
		case protocol.OpPutPart:
			if !e.Final || e.Status != protocol.StatusOK {
				return
			}
			e.Op = protocol.OpPutContent
		case protocol.OpPutContent:
			if e.Upload != 0 {
				return
			}
		}
		kind := KindStorage
		if e.Op == protocol.OpAuthenticate || e.Op == protocol.OpCloseSession {
			kind = KindSession
		}
		var flags uint8
		if e.IsUpdate {
			flags |= FlagUpdate
		}
		if e.IsDir {
			flags |= FlagDir
		}
		c.mu.Lock()
		defer c.mu.Unlock()
		c.records.add(&Record{
			Time:    e.Start.UnixNano(),
			Dur:     int64(e.Duration),
			Session: uint64(e.Session),
			User:    uint64(e.User),
			Volume:  uint64(e.Volume),
			Node:    uint64(e.Node),
			HashLo:  hashLo(e.Hash),
			Size:    e.Size,
			Wire:    e.Wire,
			Kind:    kind,
			Op:      uint8(e.Op),
			Status:  uint8(e.Status),
			Proc:    uint8(e.Proc),
			Shard:   -1,
			Server:  c.serverIdx(e.Server),
			Ext:     c.extIdx(e.Ext),
			Flags:   flags,
		})
	}
}

// RPCObserver returns the observer to register on the RPC tier.
func (c *Collector) RPCObserver() rpc.Observer {
	return func(sp rpc.Span) {
		c.mu.Lock()
		defer c.mu.Unlock()
		c.rpcAgg.observe(sp)
		if c.cfg.KeepRPCRecords {
			var status uint8
			if sp.Err != nil {
				status = uint8(protocol.StatusOf(sp.Err))
			}
			c.rpcRecs.add(&Record{
				Time:   sp.Start.UnixNano(),
				Dur:    int64(sp.Service),
				User:   uint64(sp.User),
				Kind:   KindRPC,
				RPC:    uint8(sp.RPC),
				Status: status,
				Proc:   uint8(sp.Proc),
				Shard:  int8(sp.Shard),
				Server: c.serverIdx("rpc"),
			})
		}
	}
}

// Records returns a copy of the storage/session records, in arrival order.
// The slice is the caller's.
func (c *Collector) Records() []Record {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.records.slice()
}

// RPC returns the streaming RPC aggregate.
func (c *Collector) RPC() *RPCAggregate {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.rpcAgg
}

// Len returns the number of storage/session records collected, including
// records already flushed to disk by a streaming session.
func (c *Collector) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.records.n + int(c.flushed)
}
