package obs

// eventRing is a fixed-capacity ring of the most recent events: the one
// buffer behind LiveSink.Recent and the FlightRecorder's dumps. It is
// not locked; its owner's mutex guards it.
type eventRing struct {
	buf  []Event
	next int // write cursor
	full bool
}

// newEventRing returns a ring holding the last size events (minimum 1).
func newEventRing(size int) eventRing {
	return eventRing{buf: make([]Event, max(size, 1))}
}

// add appends e, overwriting the oldest event once the ring is full.
func (r *eventRing) add(e Event) {
	r.buf[r.next] = e
	r.next++
	if r.next == len(r.buf) {
		r.next, r.full = 0, true
	}
}

// len returns how many events the ring holds.
func (r *eventRing) len() int {
	if r.full {
		return len(r.buf)
	}
	return r.next
}

// last copies up to n of the most recent events, oldest first; n <= 0
// means every held event.
func (r *eventRing) last(n int) []Event {
	if have := r.len(); n <= 0 || n > have {
		n = have
	}
	out := make([]Event, 0, n)
	for i := r.next - n; i < r.next; i++ {
		out = append(out, r.buf[(i+len(r.buf))%len(r.buf)])
	}
	return out
}
