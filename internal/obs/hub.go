package obs

import "sync"

// MaxSubscriberBuffer bounds the channel buffer one Hub subscriber can
// request. A serving process may hold many concurrent SSE tails; an
// unbounded per-subscriber buffer would let one slow consumer pin an
// arbitrary amount of the publisher's memory — backpressure is handled
// by dropping (and counting) instead, never by buffering without bound
// or blocking Publish.
const MaxSubscriberBuffer = 4096

// Hub is a bounded fan-out of values to subscriber channels: the one
// pub/sub behind the live trace tail (LiveSink) and the per-tenant
// formation streams of the serving layer. Publish never blocks: a
// subscriber whose buffer is full misses the value, and the miss is
// counted for that subscriber and in the hub's total.
//
// The zero value is an empty, open hub; it allocates nothing until the
// first Subscribe. All methods are safe for concurrent use.
type Hub[T any] struct {
	mu      sync.Mutex
	subs    map[int]*hubSub[T]
	seq     int
	dropped int64
	closed  bool
}

// hubSub is one subscriber: its channel and how many values it has
// missed because the channel was full when they were published.
type hubSub[T any] struct {
	ch      chan T
	dropped int64
}

// Subscribe registers a subscriber with the given channel buffer —
// clamped to [1, MaxSubscriberBuffer] — and returns its id and receive
// channel. The channel is closed by Unsubscribe or Close. After Close,
// Subscribe returns an already-closed channel, so a consumer racing the
// hub's shutdown ends instead of waiting on a channel nobody closes.
func (h *Hub[T]) Subscribe(buf int) (int, <-chan T) {
	ch := make(chan T, min(max(buf, 1), MaxSubscriberBuffer))
	h.mu.Lock()
	defer h.mu.Unlock()
	h.seq++
	if h.closed {
		close(ch)
		return h.seq, ch
	}
	if h.subs == nil {
		h.subs = make(map[int]*hubSub[T])
	}
	h.subs[h.seq] = &hubSub[T]{ch: ch}
	return h.seq, ch
}

// Unsubscribe removes a subscriber and closes its channel. Unknown ids
// are ignored (the subscriber may have been removed by Close already).
func (h *Hub[T]) Unsubscribe(id int) {
	h.mu.Lock()
	defer h.mu.Unlock()
	if sub, ok := h.subs[id]; ok {
		close(sub.ch)
		delete(h.subs, id)
	}
}

// Publish offers v to every subscriber without blocking and returns how
// many of them missed it because their buffer was full.
func (h *Hub[T]) Publish(v T) int {
	missed := 0
	h.mu.Lock()
	for _, sub := range h.subs {
		select {
		case sub.ch <- v:
		default:
			sub.dropped++
			missed++
		}
	}
	h.dropped += int64(missed)
	h.mu.Unlock()
	return missed
}

// Close closes every subscriber channel and makes later Subscribe calls
// return closed channels. Closing twice is a no-op.
func (h *Hub[T]) Close() {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.closed = true
	for id, sub := range h.subs {
		close(sub.ch)
		delete(h.subs, id)
	}
}

// Dropped returns the total number of values subscribers have missed,
// including subscribers that are gone.
func (h *Hub[T]) Dropped() int64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.dropped
}

// SubscriberDropped returns how many values the given subscriber has
// missed so far. Unknown (or already unsubscribed) ids report 0.
func (h *Hub[T]) SubscriberDropped(id int) int64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	if sub, ok := h.subs[id]; ok {
		return sub.dropped
	}
	return 0
}

// SubscriberDrops returns the drop counts of the current subscribers,
// keyed by subscriber id.
func (h *Hub[T]) SubscriberDrops() map[int]int64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	out := make(map[int]int64, len(h.subs))
	for id, sub := range h.subs {
		out[id] = sub.dropped
	}
	return out
}

// Pending returns the number of values buffered across all subscriber
// channels and not yet received.
func (h *Hub[T]) Pending() int {
	h.mu.Lock()
	defer h.mu.Unlock()
	n := 0
	for _, sub := range h.subs {
		n += len(sub.ch)
	}
	return n
}
