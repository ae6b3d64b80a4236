package workloads

import (
	"math/rand"
	"strings"
)

// coldEvery makes every fourth tcp-meta session cold: connect and close,
// nothing else — most real sessions manage no data at all (§7.3).
const coldEvery = 4

// sampledUsers is how many accounts the final model check re-syncs.
const sampledUsers = 32

// runTCPMeta is the small-message workload: per-request cost is the whole
// bill. Closed loop, one request in flight per connection, as a U1 client
// issues a request and waits for its reply (Fig. 8).
func runTCPMeta(o Options, r *Result) error {
	sz := r.Sizes
	env, err := openTCP(o.Seed, sz.Users)
	if err != nil {
		return err
	}
	defer env.close()
	if err := env.preseedSized(rand.New(rand.NewSource(o.Seed)), sz.FilesPerUser); err != nil {
		return err
	}
	if err := env.listen(); err != nil {
		return err
	}

	parts := env.partition(sz.Conns)
	runs := make([]*scriptRun, sz.Conns)
	execs := make([]*clientExec, sz.Conns)
	loops := make([]func(), sz.Conns)
	for c := range runs {
		rng := rand.New(rand.NewSource(o.Seed*1000003 + int64(c) + 1))
		execs[c] = &clientExec{dial: env.dialGateway, rec: o.Spans}
		runs[c] = &scriptRun{
			exec: execs[c], users: parts[c], rng: rng, rec: o.Spans,
			seq: opSequence(rng, sz.OpsPerConn, metaMix), coldEvery: coldEvery, loop: uint64(c + 1),
		}
		loops[c] = runs[c].run
	}

	begin, end, d := env.measure(loops)

	var sent, notOK uint64
	var clientOps, sessions int
	var reads, writes []float64
	for c, run := range runs {
		if run.err != nil {
			return loopErr(c, run.err)
		}
		sent += execs[c].requests
		notOK += execs[c].notOK
		sessions += run.sessions
		for k, lat := range run.lat {
			clientOps += len(lat)
			if opKind(k).isRead() {
				reads = append(reads, lat...)
			} else {
				writes = append(writes, lat...)
			}
		}
	}

	measured := end.at.Sub(begin.at).Seconds()
	r.MeasuredSeconds, r.Loops = measured, sz.Conns
	r.Metrics["setup_s"] = begin.at.Sub(o.Start).Seconds()
	r.Metrics["ops_per_s"] = float64(sent) / measured
	r.percentiles("read", reads)
	r.percentiles("write", writes)
	r.processLayer(begin, end, sent)
	r.heapPerUser(sz.Users, env, runs)

	r.agree(sent, notOK, d)
	r.registryLayers(d, env.cluster)
	if o.Traced && clientOps > 0 {
		// The client-operation spans' self time: each span minus the
		// Transport.Do spans under it.
		var self float64
		for name, seconds := range o.Spans.SelfSeconds() {
			if strings.HasPrefix(name, "client.") {
				self += seconds
			}
		}
		r.Layers["client.self_us_per_op"] = self * 1e6 / float64(clientOps)
	}
	// Per request: a request frame and a response frame through the codec,
	// and two loopback hops (client to gateway, gateway to server).
	r.Counts["wire.rt_small_ns"] = 2 * float64(sent)
	r.Counts["wire.loopback_rt_ns"] = 2 * float64(sent)
	r.Counts["gateway.place_ns"] = float64(sessions)
	r.Counts["auth.validate_ns"] = float64(sessions)

	if o.Fault == FaultDropNode {
		env.users[0].removeFile(0)
	}
	return verifyModels(r, env.dialGateway, env.users, sampledUsers)
}
