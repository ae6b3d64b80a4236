// Package analysis reimplements every measurement of the paper's evaluation
// (§5 storage workload, §6 user behavior, §7 back-end performance) over a
// collected trace. Each figure/table has one Analyze function returning a
// result struct that renders as terminal text and exports gnuplot-ready data
// series; cmd/u1bench prints each result against the paper's numbers.
package analysis

import (
	"sort"
	"time"

	"u1/internal/protocol"
	"u1/internal/rpc"
	"u1/internal/trace"
)

// Trace is the analyzable view of a collected dataset: time-sorted
// storage/session records plus the streaming RPC aggregate.
type Trace struct {
	Records    []trace.Record
	RPC        *trace.RPCAggregate
	Servers    []string
	Extensions []string
	Start      time.Time
	Days       int
}

// FromCollector builds the analyzable view from a live collector.
func FromCollector(col *trace.Collector, start time.Time, days int) *Trace {
	recs := col.Records() // already a copy the caller owns
	sort.SliceStable(recs, func(i, j int) bool { return recs[i].Time < recs[j].Time })
	return &Trace{
		Records:    recs,
		RPC:        col.RPC(),
		Servers:    col.Servers(),
		Extensions: col.Extensions(),
		Start:      start,
		Days:       days,
	}
}

// FromDataset builds the view from logfiles read back from disk. The RPC
// aggregate is rebuilt from retained RPC records when present.
func FromDataset(ds *trace.Dataset, start time.Time, days, shards int) *Trace {
	t := &Trace{
		Records:    ds.Records,
		Servers:    ds.Servers,
		Extensions: ds.Extensions,
		Start:      start,
		Days:       days,
	}
	col := trace.NewCollector(trace.Config{Start: start, Days: days, Shards: shards})
	obs := col.RPCObserver()
	for _, r := range ds.RPCRecords {
		obs(rpcSpanFromRecord(r))
	}
	t.RPC = col.RPC()
	return t
}

// rpcSpanFromRecord reverses the record mapping for aggregate rebuilding.
func rpcSpanFromRecord(r trace.Record) (sp rpc.Span) {
	sp.RPC = protocol.RPC(r.RPC)
	sp.Class = sp.RPC.Class()
	sp.Shard = int(r.Shard)
	sp.Proc = int(r.Proc)
	sp.User = protocol.UserID(r.User)
	sp.Start = r.When()
	sp.Service = r.Duration()
	if r.Status != uint8(protocol.StatusOK) {
		sp.Err = protocol.Status(r.Status).Err()
	}
	return sp
}

// Sanitize reproduces the paper's artifact removal (§4.1): "a small number
// of apparently malfunctioning clients seems to continuously upload files
// hundreds of times — these artifacts have been removed for this analysis."
// A client is abusive when it repeats more than maxNodeRepeat transfer
// operations on a single node; that flags both malfunctioning clients and
// the DDoS accounts (whose thousands of leeching sessions hammer one file).
// The returned trace drops every record of flagged users; the RPC aggregate
// is shared unchanged (it cannot be re-filtered after streaming reduction).
//
// Use the sanitized view for the user-behavior analyses (Figs. 3, 7–9, 16)
// and the raw view for the service-wide ones (Figs. 2, 5, 14).
func (t *Trace) Sanitize() *Trace {
	type un struct{ u, n uint64 }
	counts := make(map[un]int)
	var transfers int
	for i := range t.Records {
		r := &t.Records[i]
		if !isUpload(r) && !isDownload(r) {
			continue
		}
		transfers++
		counts[un{r.User, r.Node}]++
	}
	// The threshold scales with the trace: an artifact hammers one node for
	// a macroscopic share of all transfers (the big DDoS repeats one file
	// for tens of percent), while even the heaviest legitimate user spreads
	// work across a working set.
	maxNodeRepeat := transfers / 50
	if maxNodeRepeat < 500 {
		maxNodeRepeat = 500
	}
	abusive := make(map[uint64]bool)
	for k, c := range counts {
		if c > maxNodeRepeat {
			abusive[k.u] = true
		}
	}
	if len(abusive) == 0 {
		return t
	}
	clean := make([]trace.Record, 0, len(t.Records))
	for i := range t.Records {
		if !abusive[t.Records[i].User] {
			clean = append(clean, t.Records[i])
		}
	}
	return &Trace{
		Records:    clean,
		RPC:        t.RPC,
		Servers:    t.Servers,
		Extensions: t.Extensions,
		Start:      t.Start,
		Days:       t.Days,
	}
}

// Hours returns the trace window length in hours.
func (t *Trace) Hours() int { return t.Days * 24 }

// End returns the instant after the trace window.
func (t *Trace) End() time.Time { return t.Start.Add(time.Duration(t.Days) * 24 * time.Hour) }

// Ext resolves an extension table index.
func (t *Trace) Ext(i uint8) string {
	if int(i) < len(t.Extensions) {
		return t.Extensions[i]
	}
	return ""
}

// isUpload/isDownload classify storage records as the paper's write/read ops.
func isUpload(r *trace.Record) bool {
	return r.Kind == trace.KindStorage && protocol.Op(r.Op) == protocol.OpPutContent &&
		r.Status == uint8(protocol.StatusOK)
}

func isDownload(r *trace.Record) bool {
	return r.Kind == trace.KindStorage && protocol.Op(r.Op) == protocol.OpGetContent &&
		r.Status == uint8(protocol.StatusOK)
}

func isUnlink(r *trace.Record) bool {
	return r.Kind == trace.KindStorage && protocol.Op(r.Op) == protocol.OpUnlink &&
		r.Status == uint8(protocol.StatusOK)
}
