// Package notify implements the inter-API-server event bus of §3.4.2: the
// RabbitMQ stand-in. When an API server commits a change that other,
// simultaneously connected clients must learn about (updates to shares, new
// generations on a volume another device mirrors), it publishes an event.
// Every subscribed API server receives every event in the publisher's call
// and forwards it to the affected sessions it hosts. The broker drops
// nothing; a client too slow to take its pushes is disconnected and catches
// up by the generation comparison done on every connection (§3.4.2).
package notify

import (
	"slices"
	"sort"
	"sync"

	"u1/internal/metrics"
	"u1/internal/protocol"
)

// Event is one inter-server notification.
type Event struct {
	// Kind mirrors the client push vocabulary.
	Kind protocol.PushEvent
	// User is the account whose sessions should be notified.
	User protocol.UserID
	// Volume and Generation describe volume-changed events.
	Volume     protocol.VolumeID
	Generation protocol.Generation
	// Share carries the grant for share events.
	Share protocol.ShareInfo
	// Origin names the publishing API server. Servers still receive their
	// own events (RabbitMQ fan-out semantics); the origin uses the local
	// fast path for its own sessions and skips its own delivery.
	Origin string
	// ExcludeSession is the session that caused the event: it already knows.
	ExcludeSession protocol.SessionID
}

// brokerMetrics holds the broker's registered handles: bus traffic counters
// and the per-publish fan-out width histogram.
type brokerMetrics struct {
	published *metrics.Counter
	delivered *metrics.Counter
	fanout    *metrics.Histogram
}

// subscriber is one API server's delivery function.
type subscriber struct {
	name    string
	deliver func(Event)
}

// Broker is the fan-out exchange. One instance serves the whole back-end
// (the U1 deployment ran a single RabbitMQ server), and every API server
// subscribes once, when it is built; no subscriber is ever removed.
// Publish snapshots the subscriber list under the read lock and calls every
// delivery function outside it, so the broker-wide critical section is one
// slice-header copy no matter how wide the fan-out.
type Broker struct {
	mu sync.RWMutex
	m  brokerMetrics
	// list is the immutable fan-out snapshot, ordered by subscriber name so
	// every fan-out visits servers in the same order — delivery interleaving
	// is part of the deterministic-replay surface. Subscribe replaces it, so
	// a Publish iterating an older snapshot never sees it change.
	list []subscriber
}

// NewBroker creates an empty broker.
func NewBroker() *Broker {
	b := &Broker{}
	b.Instrument(nil)
	return b
}

// Instrument registers the broker's counters on reg. Call before traffic
// starts; a nil registry leaves the broker unobserved but functional.
func (b *Broker) Instrument(reg *metrics.Registry) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.m = brokerMetrics{
		published: reg.Counter(metrics.NotifyPublished),
		delivered: reg.Counter(metrics.NotifyDelivered),
		fanout:    reg.Histogram(metrics.NotifyFanout),
	}
}

// Subscribe adds an API server's delivery function, which must not block. A
// name already taken panics: two servers sharing a name would hide each
// other's events behind Publish's origin skip.
func (b *Broker) Subscribe(server string, deliver func(Event)) {
	b.mu.Lock()
	defer b.mu.Unlock()
	i := sort.Search(len(b.list), func(i int) bool { return b.list[i].name >= server })
	if i < len(b.list) && b.list[i].name == server {
		panic("notify: server " + server + " subscribed twice")
	}
	b.list = slices.Insert(slices.Clip(b.list), i, subscriber{name: server, deliver: deliver})
}

// Register subscribes a server that discards every event.
//
// Deprecated: use Subscribe; the broker keeps no queue to size.
func (b *Broker) Register(server string, _ int) { b.Subscribe(server, func(Event) {}) }

// Publish calls the delivery function of every subscriber but the origin,
// which served its own sessions before publishing (the same-process
// shortcut of the paper's footnote 4).
func (b *Broker) Publish(e Event) {
	b.mu.RLock()
	m, list := b.m, b.list
	b.mu.RUnlock()

	var delivered uint64
	for _, sub := range list {
		if sub.name == e.Origin {
			continue
		}
		sub.deliver(e)
		delivered++
	}
	m.published.Inc()
	m.delivered.Add(delivered)
	m.fanout.Observe(float64(delivered))
}
