package core

import (
	"fmt"
	"reflect"
	"sync"
	"testing"
)

// TestWorkerPoolDispatchOrder pins the fairness order on one worker: the
// higher priority class first, then round-robin across queries of a class
// (fewest running, least recently dispatched, lower id), FIFO within a query.
// Close drains what is still queued before it returns.
func TestWorkerPoolDispatchOrder(t *testing.T) {
	p := NewWorkerPool(1)
	var mu sync.Mutex
	var order []string
	task := func(query, prio, seq int) Task {
		return Task{Query: query, Priority: prio, Run: func(int) {
			mu.Lock()
			order = append(order, fmt.Sprintf("q%d.%d", query, seq))
			mu.Unlock()
		}}
	}

	// Park the only worker so every later submission queues up behind it.
	started, release := make(chan struct{}), make(chan struct{})
	p.Submit(Task{Query: 9, Run: func(int) { close(started); <-release }})
	<-started
	for seq := 1; seq <= 3; seq++ {
		p.Submit(task(1, 0, seq))
	}
	p.Submit(task(2, 0, 1))
	p.Submit(task(3, 1, 1))
	close(release)
	p.Close()

	want := []string{"q3.1", "q1.1", "q2.1", "q1.2", "q1.3"}
	if !reflect.DeepEqual(order, want) {
		t.Fatalf("dispatch order = %v, want %v", order, want)
	}
}
