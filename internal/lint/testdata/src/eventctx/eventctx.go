// Package eventctx is a dsmlint fixture: a miniature event
// kernel seeded with the event-context mutant the eventctx pass exists
// to catch — an event-slot primitive called from setup context — next to
// the annotated handler, the spawned closure, and the reviewed
// line-level escape, all of which must stay silent.
package eventctx

type Kernel struct{ q []func() }

// Defer files fn into the current event's slot.
//
//dsmlint:eventctx
func (k *Kernel) Defer(fn func()) { k.q = append(k.q, fn) }

// Schedule runs fn in a fresh event; callable from anywhere.
//
//dsmlint:eventspawn
func (k *Kernel) Schedule(d int, fn func()) { k.q = append(k.q, fn) }

type node struct {
	k       *Kernel
	multi   bool
	pending int
}

// deliver is a delivery callback: its body runs in event context.
//
//dsmlint:eventhandler
func (n *node) deliver() {
	n.k.Defer(func() { n.pending++ })
	n.relay()
}

// relay is handler-internal machinery, annotated so deliver may call it.
//
//dsmlint:eventhandler
func (n *node) relay() {
	n.k.Defer(func() { n.pending-- })
}

// setup runs before the simulation starts — the seeded mutant calls
// event-slot primitives from setup context.
func (n *node) setup() {
	n.k.Defer(func() { n.pending++ }) // want `event context: Defer may only be called from event context`
	n.deliver()                       // want `event context: deliver executes in event context`

	n.k.Schedule(1, func() {
		// The spawned closure runs in event context: both calls are fine.
		n.k.Defer(func() { n.pending++ })
		n.deliver()
	})

	if n.multi {
		//dsmlint:eventhandler reviewed: the multi guard proves this branch runs from a delivery continuation
		n.k.Defer(func() { n.pending++ })
	}
}
