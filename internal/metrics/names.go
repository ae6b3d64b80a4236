package metrics

import "strconv"

// Name is one series of the metric namespace. Only this package builds one,
// so every series a Registry holds and every series a reader looks up is
// declared in this file: a misspelt series fails to compile on both sides.
type Name struct{ s string }

// The prefixes of the dynamic families and of the fixed groups below.
// benchmark/ scans snapshots by prefix, so their values are part of the
// metrics API.
const (
	APIOpPrefix       = "api.op."
	RPCPrefix         = "rpc."
	RPCClassPrefix    = "rpc.class."
	ShardPrefix       = "meta.shard."
	FaultsPrefix      = "faults."
	WALPrefix         = "wal."
	ReplicationPrefix = "repl."
)

// The fixed series, grouped by the tier that records them. A series without
// a kind comment is a counter.
var (
	// API servers.
	APISessionsActive = Name{"api.sessions.active"} // gauge
	APIRegionRefused  = Name{"api.region.refused"}

	// The RPC/DAL tier.
	RPCErrors = Name{"rpc.errors"}

	// The metadata store.
	MetaDeltaServed     = Name{"meta.delta.served"}
	MetaDeltaTruncated  = Name{"meta.delta.truncated"}
	MetaGetFromScratch  = Name{"meta.get_from_scratch"}
	MetaDeltaLogTrimmed = Name{"meta.deltalog.trimmed"}

	// The data store.
	BlobPutBytes    = Name{"blob.put.bytes"}
	BlobPutSeconds  = Name{"blob.put.seconds"} // histogram
	BlobGetBytes    = Name{"blob.get.bytes"}
	BlobGetSeconds  = Name{"blob.get.seconds"} // histogram
	BlobDeletes     = Name{"blob.deletes"}
	BlobObjectBytes = Name{"blob.object.bytes"} // histogram
	BlobObjectsHeld = Name{"blob.objects.held"} // gauge

	// The notification broker.
	NotifyPublished = Name{"notify.published"}
	NotifyDelivered = Name{"notify.delivered"}
	NotifyDropped   = Name{"notify.dropped"}
	NotifyFanout    = Name{"notify.fanout"} // histogram

	// The gateway.
	GatewaySessionsPlaced = Name{"gateway.sessions.placed"}
	GatewaySessionsActive = Name{"gateway.sessions.active"} // gauge
	GatewayPlaceSeconds   = Name{"gateway.place.seconds"}   // histogram

	// The durable metadata tier's journals; WALJournaled is counted by the
	// API servers, per mutation charged a journal sync.
	WALAppends          = Name{WALPrefix + "appends"}
	WALSnapshots        = Name{WALPrefix + "snapshots"}
	WALReplayed         = Name{WALPrefix + "replayed"}
	WALTornBytesDropped = Name{WALPrefix + "torn_bytes_dropped"}
	WALErrors           = Name{WALPrefix + "errors"}
	WALJournaled        = Name{WALPrefix + "journaled"}

	// The API servers' fault injection, admission control, SSO bucket and
	// the client retries they observe.
	FaultsInjected       = Name{FaultsPrefix + "injected"}
	FaultsShed           = Name{FaultsPrefix + "shed"}
	FaultsSSOShed        = Name{FaultsPrefix + "sso_shed"}
	FaultsRetried        = Name{FaultsPrefix + "retried"}
	FaultsRetrySucceeded = Name{FaultsPrefix + "retry_succeeded"}

	// Cross-region metadata replication.
	ReplPublished      = Name{ReplicationPrefix + "published"}
	ReplApplied        = Name{ReplicationPrefix + "applied"}
	ReplRevokedBlocked = Name{ReplicationPrefix + "revoked_blocked"}
	ReplReadsLocal     = Name{ReplicationPrefix + "reads.local"}
	ReplReadsRemote    = Name{ReplicationPrefix + "reads.remote"}
	ReplReadsStale     = Name{ReplicationPrefix + "reads.stale"}
	ReplBacklogDepth   = Name{ReplicationPrefix + "backlog.depth"} // gauge
	ReplLagEpochs      = Name{ReplicationPrefix + "lag.epochs"}    // histogram
)

// APIOpSeries are one API operation's latency histogram and outcome
// counters.
type APIOpSeries struct{ Seconds, Count, Errors Name }

// APIOp names the series of the API operation op (a protocol.Op name).
func APIOp(op string) APIOpSeries {
	p := APIOpPrefix + op
	return APIOpSeries{Name{p + ".seconds"}, Name{p + ".count"}, Name{p + ".errors"}}
}

// APIServerOps names the request counter of one API server machine.
func APIServerOps(machine string) Name { return Name{"api.server." + machine + ".ops"} }

// RPCSeconds names the service-time histogram of one RPC (a dal.* or
// auth.* name).
func RPCSeconds(rpc string) Name { return Name{RPCPrefix + rpc + ".seconds"} }

// RPCClassSeconds names the service-time histogram aggregating one paper
// RPC class.
func RPCClassSeconds(class string) Name { return Name{RPCClassPrefix + class + ".seconds"} }

// ShardSeries are one metadata shard's op counters and lock hold-time
// histograms.
type ShardSeries struct{ Reads, Writes, ReadHold, WriteHold Name }

// Shard names the series of metadata shard i.
func Shard(i int) ShardSeries {
	p := ShardPrefix + strconv.Itoa(i)
	return ShardSeries{Name{p + ".reads"}, Name{p + ".writes"},
		Name{p + ".read_hold.seconds"}, Name{p + ".write_hold.seconds"}}
}

// GatewayBackendPlaced names the gateway's placement counter for one
// backend machine.
func GatewayBackendPlaced(backend string) Name {
	return Name{"gateway.backend." + backend + ".placed"}
}
