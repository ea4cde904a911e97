// Package p is the pure analyzer's golden input: a marked file with one
// of every construct a core may not have.
package p

//hbvet:pure

import (
	"context"     // want `//hbvet:pure file imports context`
	"sync"        // want `//hbvet:pure file imports sync`
	"sync/atomic" // want `//hbvet:pure file imports sync/atomic`

	"repro/clock" // want `//hbvet:pure file imports repro/clock`
)

var (
	_ context.Context
	_ sync.Mutex
	_ atomic.Int64
	_ clock.Clock
)

type core struct {
	wake chan struct{} // want `//hbvet:pure file has a channel type`
	n    int
}

func (c *core) step() {
	go c.plain()         // want `//hbvet:pure file starts a goroutine`
	c.wake <- struct{}{} // want `//hbvet:pure file sends on a channel`
	<-c.wake             // want `//hbvet:pure file receives from a channel`
	select {             // want `//hbvet:pure file has a select statement`
	default:
	}
	for range c.wake { // want `//hbvet:pure file ranges over a channel`
	}
	close(c.wake) // want `//hbvet:pure file closes a channel`
}

// plain is what a core is made of: state, arithmetic, calls.
func (c *core) plain() { c.n++ }
