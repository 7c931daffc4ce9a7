package resilience

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
)

// Queue admission errors.
var (
	// ErrShed is returned by Offer when the queue is full: the arrival
	// is rejected immediately (clients get a fast 503 + Retry-After)
	// instead of queueing unboundedly.
	ErrShed = errors.New("resilience: queue full, request shed")
	// ErrClosed is returned by Offer after Close: the service is
	// draining and admits nothing new.
	ErrClosed = errors.New("resilience: queue closed")
)

// Queue is a bounded FIFO admission queue with load shedding. Offers
// beyond the capacity are shed (newest-arrival rejection: everyone
// already admitted keeps their place, the latecomer is turned away
// with ErrShed), Pop blocks until an item, close-and-drained, or
// context cancellation.
type Queue[T any] struct {
	mu     sync.Mutex
	ch     chan T
	closed bool

	shed    atomic.Uint64
	offered atomic.Uint64
}

// NewQueue builds a queue holding at most capacity items (minimum 1).
func NewQueue[T any](capacity int) *Queue[T] {
	if capacity < 1 {
		capacity = 1
	}
	return &Queue[T]{ch: make(chan T, capacity)}
}

// Offer admits v or fails fast: ErrClosed when draining, ErrShed when
// full. It never blocks.
func (q *Queue[T]) Offer(v T) error {
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.closed {
		return ErrClosed
	}
	select {
	case q.ch <- v:
		q.offered.Add(1)
		return nil
	default:
		q.shed.Add(1)
		return ErrShed
	}
}

// Pop removes the oldest item, blocking until one is available. ok is
// false when the queue is closed and fully drained, or ctx is done.
func (q *Queue[T]) Pop(ctx context.Context) (v T, ok bool) {
	if ctx == nil {
		ctx = context.Background()
	}
	select {
	case v, ok = <-q.ch:
		return v, ok
	case <-ctx.Done():
		return v, false
	}
}

// Close stops admission; queued items remain poppable and Pop reports
// ok=false once they are drained. Close is idempotent.
func (q *Queue[T]) Close() {
	q.mu.Lock()
	defer q.mu.Unlock()
	if !q.closed {
		q.closed = true
		close(q.ch)
	}
}

// Depth returns the current occupancy.
func (q *Queue[T]) Depth() int { return len(q.ch) }

// Capacity returns the admission bound.
func (q *Queue[T]) Capacity() int { return cap(q.ch) }

// Saturated reports whether the queue is at capacity — the service's
// readiness probe flips to unready while this holds, steering load
// balancers away before requests are shed.
func (q *Queue[T]) Saturated() bool { return len(q.ch) >= cap(q.ch) }

// Shed returns how many offers have been rejected for lack of space.
func (q *Queue[T]) Shed() uint64 { return q.shed.Load() }

// Offered returns how many offers were admitted.
func (q *Queue[T]) Offered() uint64 { return q.offered.Load() }
