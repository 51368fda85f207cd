package obs

import (
	"testing"
	"time"
)

// TestHub pins the bounded fan-out shared by the live trace tail and
// the per-tenant formation streams. Every case starts from a zero-value
// hub, which must be usable as is.
func TestHub(t *testing.T) {
	cases := []struct {
		name string
		run  func(t *testing.T, h *Hub[int])
	}{
		{"buffer_clamp", func(t *testing.T, h *Hub[int]) {
			// A subscriber cannot make the publisher hold more than the cap,
			// nor less than one value.
			id, ch := h.Subscribe(1 << 30)
			if got := cap(ch); got != MaxSubscriberBuffer {
				t.Fatalf("Subscribe(1<<30) buffer cap = %d, want clamp to %d", got, MaxSubscriberBuffer)
			}
			h.Unsubscribe(id)
			if d := h.SubscriberDropped(id); d != 0 {
				t.Fatalf("unknown subscriber dropped = %d, want 0", d)
			}
			if _, ch := h.Subscribe(0); cap(ch) != 1 {
				t.Fatalf("Subscribe(0) buffer cap = %d, want 1", cap(ch))
			}
		}},
		{"per_subscriber_drops", func(t *testing.T, h *Hub[int]) {
			small, _ := h.Subscribe(2)
			big, _ := h.Subscribe(8)
			missed := 0
			for i := 0; i < 6; i++ {
				missed += h.Publish(i)
			}
			if missed != 4 || h.Dropped() != 4 {
				t.Fatalf("Publish reported %d misses, Dropped() = %d; want 4 and 4", missed, h.Dropped())
			}
			if d := h.SubscriberDrops(); d[small] != 4 || d[big] != 0 || len(d) != 2 {
				t.Fatalf("SubscriberDrops() = %v, want %d:4 %d:0", d, small, big)
			}
			if got := h.Pending(); got != 8 {
				t.Fatalf("Pending() = %d, want 2+6 buffered", got)
			}
			// The total outlives the subscriber; the per-subscriber count
			// does not.
			h.Unsubscribe(small)
			if h.Dropped() != 4 || h.SubscriberDropped(small) != 0 {
				t.Fatalf("after Unsubscribe: Dropped() = %d, SubscriberDropped = %d; want 4 and 0", h.Dropped(), h.SubscriberDropped(small))
			}
		}},
		{"slow_consumer_backpressure", func(t *testing.T, h *Hub[int]) {
			// A consumer slower than the publisher never blocks or slows
			// Publish, its misses are counted per subscriber, and a fast
			// consumer sharing the hub sees every value in order.
			slowID, slow := h.Subscribe(4)
			fastID, fast := h.Subscribe(MaxSubscriberBuffer)
			const n = 2000
			done := make(chan time.Duration)
			go func() {
				start := time.Now()
				for i := 1; i <= n; i++ {
					h.Publish(i)
				}
				done <- time.Since(start)
			}()
			// The slow consumer drains a trickle while the publisher floods,
			// and stops asking once the publisher is done — the stream only
			// closes on Close, so an unconditional read could wait forever.
			var slowGot []int
			var elapsed time.Duration
			publishing := true
			for publishing && len(slowGot) < 8 {
				select {
				case v := <-slow:
					slowGot = append(slowGot, v)
					time.Sleep(100 * time.Microsecond)
				case elapsed = <-done:
					publishing = false
				}
			}
			if publishing {
				elapsed = <-done
			}
			if elapsed > 5*time.Second {
				t.Fatalf("publishing %d values with a slow subscriber took %v; Publish must never block", n, elapsed)
			}
			for i := 1; i <= n; i++ {
				if v := <-fast; v != i {
					t.Fatalf("fast subscriber got %d at position %d; values must not reorder", v, i)
				}
			}
			if d := h.SubscriberDropped(fastID); d != 0 {
				t.Fatalf("fast subscriber dropped %d values", d)
			}
			// Everything the slow consumer saw, plus its drops, plus what is
			// still buffered covers the publication, in order.
			dropped := h.SubscriberDropped(slowID)
			if dropped == 0 {
				t.Fatal("slow subscriber should have dropped values")
			}
			for len(slow) > 0 {
				slowGot = append(slowGot, <-slow)
			}
			if got := int64(len(slowGot)) + dropped; got != n {
				t.Fatalf("slow subscriber: seen %d + dropped %d = %d, want %d", len(slowGot), dropped, got, n)
			}
			for i := 1; i < len(slowGot); i++ {
				if slowGot[i] <= slowGot[i-1] {
					t.Fatalf("slow subscriber saw %d after %d; drops must not reorder", slowGot[i], slowGot[i-1])
				}
			}
			if h.Dropped() != dropped {
				t.Fatalf("Dropped() = %d, want %d", h.Dropped(), dropped)
			}
		}},
		{"unsubscribe_closes", func(t *testing.T, h *Hub[int]) {
			// Unsubscribe ends the consumer's stream: what was buffered is
			// still delivered, then the channel closes.
			id, ch := h.Subscribe(4)
			h.Publish(7)
			h.Unsubscribe(id)
			var got []int
			timeout := time.After(5 * time.Second)
			for open := true; open; {
				select {
				case v, ok := <-ch:
					if ok {
						got = append(got, v)
					}
					open = ok
				case <-timeout:
					t.Fatal("channel never closed after Unsubscribe")
				}
			}
			if len(got) != 1 || got[0] != 7 {
				t.Fatalf("drained %v after Unsubscribe, want [7]", got)
			}
			if h.Publish(8) != 0 || h.Pending() != 0 {
				t.Fatal("an unsubscribed channel still receives publishes")
			}
		}},
		{"unsubscribe_after_close", func(t *testing.T, h *Hub[int]) {
			id, ch := h.Subscribe(1)
			h.Close()
			if _, ok := <-ch; ok {
				t.Fatal("channel should be closed after Close")
			}
			h.Unsubscribe(id) // must not close the channel a second time
			h.Close()         // nor must a second Close
			if h.Publish(1) != 0 || h.Pending() != 0 {
				t.Fatal("a closed hub has no subscribers left to publish to")
			}
		}},
		{"subscribe_after_close", func(t *testing.T, h *Hub[int]) {
			// A consumer racing the hub's shutdown must end, not wait on a
			// channel nobody will close.
			h.Close()
			id, ch := h.Subscribe(4)
			select {
			case _, ok := <-ch:
				if ok {
					t.Fatal("Subscribe after Close returned a channel holding a value")
				}
			case <-time.After(5 * time.Second):
				t.Fatal("Subscribe after Close returned a channel that never closes")
			}
			h.Unsubscribe(id)
			if h.Publish(1) != 0 {
				t.Fatal("a subscriber registered after Close received a publish")
			}
		}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			var h Hub[int]
			c.run(t, &h)
		})
	}
}
