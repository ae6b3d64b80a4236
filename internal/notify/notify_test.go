package notify

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"

	"u1/internal/metrics"
	"u1/internal/protocol"
)

// instrumented returns a broker whose counters land on a fresh registry.
func instrumented() (*Broker, *metrics.Registry) {
	b, reg := NewBroker(), metrics.NewRegistry()
	b.Instrument(reg)
	return b, reg
}

// counts reads the broker's published and delivered counters.
func counts(reg *metrics.Registry) (published, delivered uint64) {
	return reg.Counter(metrics.NotifyPublished).Value(),
		reg.Counter(metrics.NotifyDelivered).Value()
}

// counting subscribes a delivery function that counts its calls.
func counting(b *Broker, name string) *atomic.Uint64 {
	n := new(atomic.Uint64)
	b.Subscribe(name, func(Event) { n.Add(1) })
	return n
}

func TestFanOutExcludesOrigin(t *testing.T) {
	b, reg := instrumented()
	got := map[string][]Event{}
	for _, name := range []string{"api-c", "api-a", "api-b"} {
		b.Subscribe(name, func(e Event) { got[name] = append(got[name], e) })
	}

	b.Publish(Event{Kind: protocol.PushVolumeChanged, User: 1, Volume: 2, Generation: 3, Origin: "api-a"})

	for _, name := range []string{"api-b", "api-c"} {
		if evs := got[name]; len(evs) != 1 || evs[0].Volume != 2 || evs[0].Generation != 3 {
			t.Errorf("%s received %+v, want the one event", name, evs)
		}
	}
	if evs := got["api-a"]; len(evs) != 0 {
		t.Errorf("the origin received its own event: %+v", evs)
	}
	if p, d := counts(reg); p != 1 || d != 2 {
		t.Errorf("published/delivered = %d/%d, want 1/2", p, d)
	}
}

// TestFanOutOrder pins that Publish calls subscribers in name order,
// whatever order they subscribed in.
func TestFanOutOrder(t *testing.T) {
	b := NewBroker()
	var order []string
	for _, name := range []string{"c", "a", "d", "b"} {
		b.Subscribe(name, func(Event) { order = append(order, name) })
	}
	b.Publish(Event{Origin: "d"})
	if fmt.Sprint(order) != "[a b c]" {
		t.Errorf("delivery order %v, want [a b c]", order)
	}
}

// TestRegisterDuplicateNamePanics pins the one-subscription lifecycle: a
// second subscriber under a taken name would hide the two servers from each
// other behind Publish's origin skip, so it is refused outright.
func TestRegisterDuplicateNamePanics(t *testing.T) {
	b := NewBroker()
	first := counting(b, "a")
	func() {
		defer func() {
			if recover() == nil {
				t.Error("subscribing a taken name did not panic")
			}
		}()
		b.Register("a", 4)
	}()
	b.Publish(Event{Origin: "other"})
	if n := first.Load(); n != 1 {
		t.Errorf("the first subscriber received %d events, want 1", n)
	}
}

// TestConcurrentPublishRegister races publishers, which snapshot the
// subscriber list and deliver outside the broker lock, against servers
// joining under the write lock. Under -race it pins that a snapshot is
// never mutated under a reader; the delivered counter must equal the calls
// the subscribers saw, and once every server has joined a publish reaches
// all of them.
func TestConcurrentPublishRegister(t *testing.T) {
	b, reg := instrumented()
	const publishers, perPublisher, joiners = 8, 500, 200
	sink := counting(b, "sink")
	var wg sync.WaitGroup
	for p := 0; p < publishers; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			for i := 0; i < perPublisher; i++ {
				b.Publish(Event{Kind: protocol.PushVolumeChanged, User: protocol.UserID(p), Origin: "elsewhere"})
			}
		}(p)
	}
	joined := make([]*atomic.Uint64, joiners)
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := range joined {
			joined[i] = counting(b, fmt.Sprintf("api-%03d", i))
		}
	}()
	wg.Wait()

	published, delivered := counts(reg)
	if published != publishers*perPublisher || sink.Load() != published {
		t.Errorf("published = %d, sink saw %d, want %d each", published, sink.Load(), publishers*perPublisher)
	}
	seen := sink.Load()
	for _, n := range joined {
		seen += n.Load()
	}
	if delivered != seen {
		t.Errorf("delivered = %d, subscribers saw %d", delivered, seen)
	}
	before := make([]uint64, joiners)
	for i, n := range joined {
		before[i] = n.Load()
	}
	b.Publish(Event{Origin: "elsewhere"})
	for i, n := range joined {
		if n.Load() != before[i]+1 {
			t.Fatalf("subscriber %d missed a publish made after every server joined", i)
		}
	}
}

// TestConcurrentPublishersScale: concurrent publishers all make progress
// without serializing on an exclusive lock, and every publish reaches each
// non-origin subscriber exactly once.
func TestConcurrentPublishersScale(t *testing.T) {
	b, reg := instrumented()
	subs := make([]*atomic.Uint64, 6)
	for i := range subs {
		subs[i] = counting(b, fmt.Sprintf("api-%d", i))
	}
	const publishers, per = 16, 250
	var wg sync.WaitGroup
	for p := 0; p < publishers; p++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < per; i++ {
				b.Publish(Event{Origin: "api-0"})
			}
		}()
	}
	wg.Wait()
	published, delivered := counts(reg)
	if published != publishers*per {
		t.Errorf("published = %d, want %d", published, publishers*per)
	}
	if want := published * uint64(len(subs)-1); delivered != want {
		t.Errorf("delivered = %d, want %d (5 non-origin subscribers per publish)", delivered, want)
	}
	for i, n := range subs {
		want := published
		if i == 0 {
			want = 0
		}
		if n.Load() != want {
			t.Errorf("api-%d received %d events, want %d", i, n.Load(), want)
		}
	}
}
