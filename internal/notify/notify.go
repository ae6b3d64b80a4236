// Package notify implements the inter-API-server event bus of §3.4.2: the
// RabbitMQ stand-in. When an API server commits a change that other,
// simultaneously connected clients must learn about (updates to shares, new
// generations on a volume another device mirrors), it publishes an event.
// Every registered API server receives every event on its own queue and
// forwards it to the affected sessions it hosts. Delivery to live subscribers
// is at-most-once; a full queue drops events (clients recover via the
// generation comparison done on every connection, §3.4.2).
package notify

import (
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
	// fast path for its own sessions and skips its queue copy.
	Origin string
	// ExcludeSession is the session that caused the event: it already knows.
	ExcludeSession protocol.SessionID
}

// brokerMetrics holds the broker's registered handles: bus traffic counters
// and the per-publish fan-out width histogram.
type brokerMetrics struct {
	published *metrics.Counter
	delivered *metrics.Counter
	dropped   *metrics.Counter
	fanout    *metrics.Histogram
}

// subscriber is one registered queue.
type subscriber struct {
	name string
	ch   chan Event
}

// Broker is the fan-out exchange. One instance serves the whole back-end
// (the U1 deployment ran a single RabbitMQ server), and every API server
// registers its queue once, when it is built; no queue is ever removed or
// closed. Publish snapshots the subscriber list under the read lock and
// performs every queue send outside it, so the broker-wide critical section
// is one slice-header copy no matter how wide the fan-out, and sends are
// plain non-blocking channel operations with no per-queue locking.
type Broker struct {
	mu sync.RWMutex
	m  brokerMetrics
	// list is the immutable fan-out snapshot, ordered by subscriber name so
	// every fan-out visits servers in the same order — delivery interleaving
	// is part of the deterministic-replay surface. Register replaces it, so a
	// Publish iterating an older snapshot never sees it change.
	list []*subscriber
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
		dropped:   reg.Counter(metrics.NotifyDropped),
		fanout:    reg.Histogram(metrics.NotifyFanout),
	}
}

// Register creates the queue of an API server and returns its receive
// channel. buffer bounds the queue depth; overflow drops events. A server
// registers once: registering a name already taken panics, because two
// servers sharing a name would hide each other's events behind Publish's
// origin skip (server.Config.Validate refuses duplicate machine names).
func (b *Broker) Register(server string, buffer int) <-chan Event {
	if buffer <= 0 {
		buffer = 1024
	}
	q := &subscriber{name: server, ch: make(chan Event, buffer)}
	b.mu.Lock()
	defer b.mu.Unlock()
	i := sort.Search(len(b.list), func(i int) bool { return b.list[i].name >= server })
	if i < len(b.list) && b.list[i].name == server {
		panic("notify: queue " + server + " registered twice")
	}
	list := make([]*subscriber, 0, len(b.list)+1)
	list = append(list, b.list[:i]...)
	list = append(list, q)
	b.list = append(list, b.list[i:]...)
	return q.ch
}

// Publish fans the event out to every registered queue except the origin's
// (the origin served its local sessions synchronously before publishing, the
// same-process shortcut the paper's footnote 4 describes). Queue sends never
// block: a full queue drops the event. The read lock is held only to
// snapshot the subscriber list, so a wide fan-out never extends the broker's
// critical section.
func (b *Broker) Publish(e Event) {
	b.mu.RLock()
	m, list := b.m, b.list
	b.mu.RUnlock()

	var delivered, dropped uint64
	for _, q := range list {
		if q.name == e.Origin {
			continue
		}
		select {
		case q.ch <- e:
			delivered++
		default:
			dropped++
		}
	}
	m.published.Inc()
	m.delivered.Add(delivered)
	m.dropped.Add(dropped)
	m.fanout.Observe(float64(delivered))
}
