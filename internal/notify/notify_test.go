package notify

import (
	"fmt"
	"sync"
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

// counts reads the broker's published, delivered and dropped counters.
func counts(reg *metrics.Registry) (published, delivered, dropped uint64) {
	return reg.Counter(metrics.NotifyPublished).Value(),
		reg.Counter(metrics.NotifyDelivered).Value(),
		reg.Counter(metrics.NotifyDropped).Value()
}

func TestFanOutExcludesOrigin(t *testing.T) {
	b, reg := instrumented()
	qa := b.Register("api-a", 8)
	qb := b.Register("api-b", 8)
	qc := b.Register("api-c", 8)

	b.Publish(Event{Kind: protocol.PushVolumeChanged, User: 1, Volume: 2, Generation: 3, Origin: "api-a"})

	select {
	case e := <-qb:
		if e.Volume != 2 || e.Generation != 3 {
			t.Errorf("event = %+v", e)
		}
	default:
		t.Error("api-b should have received the event")
	}
	select {
	case <-qc:
	default:
		t.Error("api-c should have received the event")
	}
	select {
	case <-qa:
		t.Error("origin must not receive its own event")
	default:
	}
	if p, d, x := counts(reg); p != 1 || d != 2 || x != 0 {
		t.Errorf("published/delivered/dropped = %d/%d/%d, want 1/2/0", p, d, x)
	}
}

func TestOverflowDrops(t *testing.T) {
	b, reg := instrumented()
	b.Register("slow", 1)
	b.Publish(Event{Origin: "x"})
	b.Publish(Event{Origin: "x"}) // queue full → dropped
	if _, d, x := counts(reg); d != 1 || x != 1 {
		t.Errorf("delivered/dropped = %d/%d, want 1/1", d, x)
	}
}

// TestRegisterDuplicateNamePanics pins the one-registration lifecycle: a
// second queue under a taken name would hide the two servers from each other
// behind Publish's origin skip, so it is refused outright.
func TestRegisterDuplicateNamePanics(t *testing.T) {
	b := NewBroker()
	q := b.Register("a", 4)
	func() {
		defer func() {
			if recover() == nil {
				t.Error("registering a taken name did not panic")
			}
		}()
		b.Register("a", 4)
	}()
	b.Publish(Event{Origin: "other"})
	select {
	case <-q:
	default:
		t.Error("the first queue should still receive")
	}
}

// TestConcurrentPublishRegister races publishers, which snapshot the
// subscriber list and send outside the broker lock, against servers joining
// under the write lock. Under -race it pins that a snapshot is never mutated
// under a reader; the counters must stay exact, and once every server has
// joined a publish reaches all of them.
func TestConcurrentPublishRegister(t *testing.T) {
	b, reg := instrumented()
	const publishers, perPublisher, joiners = 8, 500, 200
	sink := b.Register("sink", 64)
	done := make(chan struct{})
	stop := make(chan struct{})
	go func() {
		defer close(done)
		for {
			select {
			case <-sink:
			case <-stop:
				return
			}
		}
	}()
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
	queues := make([]<-chan Event, joiners)
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := range queues {
			queues[i] = b.Register(fmt.Sprintf("api-%03d", i), 1)
		}
	}()
	wg.Wait()
	close(stop)
	<-done

	published, delivered, dropped := counts(reg)
	if published != publishers*perPublisher {
		t.Errorf("published = %d, want %d", published, publishers*perPublisher)
	}
	// Every publish reached the sink and whichever joiners had registered.
	if lo, hi := published, published*(joiners+1); delivered+dropped < lo || delivered+dropped > hi {
		t.Errorf("delivered %d + dropped %d outside [%d, %d]", delivered, dropped, lo, hi)
	}
	for _, q := range queues {
		for len(q) > 0 {
			<-q
		}
	}
	b.Publish(Event{Origin: "elsewhere"})
	for i, q := range queues {
		if len(q) != 1 {
			t.Fatalf("queue %d missed a publish made after every server joined", i)
		}
	}
}

func TestConcurrentPublishersScale(t *testing.T) {
	// Concurrent publishers must all make progress without serializing on an
	// exclusive lock; correctness check is exact counter accounting.
	b, reg := instrumented()
	for i := 0; i < 6; i++ {
		b.Register(fmt.Sprintf("api-%d", i), 1) // tiny queues: mostly drops
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
	published, delivered, dropped := counts(reg)
	if published != publishers*per {
		t.Errorf("published = %d, want %d", published, publishers*per)
	}
	if got, want := delivered+dropped, uint64(publishers*per*5); got != want {
		t.Errorf("delivered+dropped = %d, want %d (5 non-origin queues per publish)", got, want)
	}
}
