package resilience

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestQueueShedOrdering pins the shedding policy: the queue admits in
// arrival order up to capacity, rejects exactly the latecomers, and
// pops the admitted items FIFO — a shed never displaces an item that
// was already queued.
func TestQueueShedOrdering(t *testing.T) {
	q := NewQueue[int](3)
	var shed []int
	for i := 0; i < 6; i++ {
		if err := q.Offer(i); err != nil {
			if !errors.Is(err, ErrShed) {
				t.Fatalf("offer %d: %v", i, err)
			}
			shed = append(shed, i)
		}
	}
	if len(shed) != 3 || shed[0] != 3 || shed[1] != 4 || shed[2] != 5 {
		t.Fatalf("shed = %v, want [3 4 5] (newest arrivals)", shed)
	}
	if got := q.Shed(); got != 3 {
		t.Fatalf("Shed() = %d, want 3", got)
	}
	if !q.Saturated() {
		t.Fatal("full queue must report saturated")
	}
	for want := 0; want < 3; want++ {
		v, ok := q.Pop(context.Background())
		if !ok || v != want {
			t.Fatalf("pop = (%d, %v), want (%d, true)", v, ok, want)
		}
	}
	if q.Saturated() {
		t.Fatal("drained queue must not report saturated")
	}
	// Space freed: admission works again.
	if err := q.Offer(42); err != nil {
		t.Fatalf("offer after drain: %v", err)
	}
}

func TestQueueCloseDrains(t *testing.T) {
	q := NewQueue[string](4)
	q.Offer("a")
	q.Offer("b")
	q.Close()
	if err := q.Offer("c"); !errors.Is(err, ErrClosed) {
		t.Fatalf("offer after close = %v, want ErrClosed", err)
	}
	if v, ok := q.Pop(context.Background()); !ok || v != "a" {
		t.Fatalf("pop = (%q, %v), want (a, true)", v, ok)
	}
	if v, ok := q.Pop(context.Background()); !ok || v != "b" {
		t.Fatalf("pop = (%q, %v), want (b, true)", v, ok)
	}
	if _, ok := q.Pop(context.Background()); ok {
		t.Fatal("pop on closed+drained queue must report !ok")
	}
	q.Close() // idempotent
}

func TestQueuePopContext(t *testing.T) {
	q := NewQueue[int](1)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Millisecond)
	defer cancel()
	start := time.Now()
	if _, ok := q.Pop(ctx); ok {
		t.Fatal("pop on empty queue with expiring context must report !ok")
	}
	if time.Since(start) > 5*time.Second {
		t.Fatal("pop did not honor the context deadline")
	}
}

// TestQueueConcurrent hammers admission and removal from many
// goroutines (run under -race by scripts/check.sh): every admitted
// item is popped exactly once and the accounting adds up.
func TestQueueConcurrent(t *testing.T) {
	const producers, perProducer = 8, 200
	q := NewQueue[int](16)
	var admitted, popped, shed atomic.Uint64
	var wg sync.WaitGroup
	ctx, cancel := context.WithCancel(context.Background())
	var consumers sync.WaitGroup
	for c := 0; c < 4; c++ {
		consumers.Add(1)
		go func() {
			defer consumers.Done()
			for {
				if _, ok := q.Pop(ctx); !ok {
					return
				}
				popped.Add(1)
			}
		}()
	}
	for p := 0; p < producers; p++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perProducer; i++ {
				switch err := q.Offer(i); {
				case err == nil:
					admitted.Add(1)
				case errors.Is(err, ErrShed):
					shed.Add(1)
				default:
					t.Errorf("offer: %v", err)
				}
			}
		}()
	}
	wg.Wait()
	q.Close()
	consumers.Wait()
	cancel()
	if admitted.Load()+shed.Load() != producers*perProducer {
		t.Fatalf("admitted %d + shed %d != offered %d",
			admitted.Load(), shed.Load(), producers*perProducer)
	}
	// Consumers exit on channel close after draining, so every
	// admitted item was popped.
	if popped.Load() != admitted.Load() {
		t.Fatalf("popped %d != admitted %d", popped.Load(), admitted.Load())
	}
	if q.Shed() != shed.Load() {
		t.Fatalf("Shed() = %d, want %d", q.Shed(), shed.Load())
	}
}
