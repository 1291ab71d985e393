// Package poolown is a dsmlint fixture: a miniature shard pool and
// detector seeded with the ownership mutants the poolown pass exists to
// catch — a grab with no matching release or handoff, a pooled record or a
// view of its payload buffer touched after release, and a borrowed OnAccess
// report stored without Clone — next to correctly balanced twins that must
// stay silent.
//
//dsmlint:core
package poolown

// --- grab/release pairing ---

type buf struct{ b []byte }

type pools struct{ free []*buf }

func (p *pools) grabBuf() *buf {
	if n := len(p.free); n > 0 {
		v := p.free[n-1]
		p.free = p.free[:n-1]
		return v
	}
	return &buf{}
}

func (p *pools) releaseBuf(v *buf) { p.free = append(p.free, v) }

// leakDiscard is the seeded mutant: the grabbed struct is dropped on the
// floor and can never be released.
func leakDiscard(p *pools) {
	p.grabBuf() // want `pool leak: result of grabBuf is discarded`
}

// leakLocal grabs, uses the struct locally, and falls off the end.
func leakLocal(p *pools) int {
	v := p.grabBuf() // want `pool leak: v is grabbed from a pool but never released`
	return len(v.b)
}

func balanced(p *pools) {
	v := p.grabBuf()
	v.b = v.b[:0]
	p.releaseBuf(v)
}

func handoffSend(p *pools, sink chan *buf) {
	v := p.grabBuf()
	sink <- v
}

func handoffReturn(p *pools) *buf {
	v := p.grabBuf()
	return v
}

func handoffClosure(p *pools, run func(func())) {
	v := p.grabBuf()
	run(func() { p.releaseBuf(v) })
}

// dataNIC has Get/Put methods that are DSM data operations, not a pool
// pair — the signatures don't pair up, so poolown must ignore them.
type dataNIC struct{ mem []byte }

func (n *dataNIC) Get() []byte           { return n.mem }
func (n *dataNIC) Put(off int, b []byte) { copy(n.mem[off:], b) }

func dataOps(n *dataNIC) {
	n.Get()
}

// --- nothing after release: the pooled kinds of the operation path ---

// A reply record keeps its payload buffer across release; data is a view
// of it.
type resp struct {
	data []uint64 //dsmlint:payload
	buf  []uint64
}

// payload sizes the view.
//
//dsmlint:payload
func (r *resp) payload(n int) []uint64 {
	if cap(r.buf) < n {
		r.buf = make([]uint64, n)
	}
	r.data = r.buf[:n]
	return r.data
}

// A barrier record (arrival or release) points at the epoch's shared merged
// clock, which counts the readers still to let go.
type barrierClock struct {
	v    []uint64
	refs int
}

type barrierMsg struct {
	proc   int
	merged *barrierClock
}

type shard struct {
	resps  []*resp
	msgs   []*barrierMsg
	clocks []*barrierClock
}

func (s *shard) grabResp() *resp {
	if n := len(s.resps); n > 0 {
		r := s.resps[n-1]
		s.resps = s.resps[:n-1]
		return r
	}
	return &resp{}
}

func (s *shard) releaseResp(r *resp) {
	*r = resp{buf: r.buf}
	s.resps = append(s.resps, r)
}

func (s *shard) grabBarrierMsg() *barrierMsg { return &barrierMsg{} }

func (s *shard) releaseBarrierMsg(m *barrierMsg) {
	*m = barrierMsg{}
	s.msgs = append(s.msgs, m)
}

func (s *shard) grabBarrierClock(refs int) *barrierClock {
	return &barrierClock{refs: refs}
}

func (s *shard) releaseBarrierClock(c *barrierClock) {
	if c.refs--; c.refs == 0 {
		s.clocks = append(s.clocks, c)
	}
}

// payloadOutlivesRelease is the seeded mutant of the payload kind: the view
// is read after the buffer went back to the pool with its record.
func payloadOutlivesRelease(s *shard) uint64 {
	r := s.grabResp()
	d := r.payload(4)
	s.releaseResp(r)
	return d[0] // want `use after release: d views the payload buffer of r`
}

func payloadFieldOutlivesRelease(s *shard, r *resp) []uint64 {
	d := r.data[1:]
	s.releaseResp(r)
	return d // want `use after release: d views the payload buffer of r`
}

func payloadCopiedOut(s *shard, r *resp, dst []uint64) int {
	n := copy(dst, r.data)
	s.releaseResp(r)
	return n
}

// payloadOnErrorBranch releases on an early-return branch; the code after
// the branch still owns the record.
func payloadOnErrorBranch(s *shard, r *resp, failed bool) uint64 {
	d := r.data
	if failed {
		s.releaseResp(r)
		return 0
	}
	w := d[0]
	s.releaseResp(r)
	return w
}

// arrivalLeak is the seeded mutant of the barrier-record kind: an arrival
// grabbed, filled and dropped.
func arrivalLeak(s *shard, proc int) {
	a := s.grabBarrierMsg() // want `pool leak: a is grabbed from a pool but never released`
	a.proc = proc
}

func arrivalSent(s *shard, proc int, send func(any)) {
	a := s.grabBarrierMsg()
	a.proc = proc
	send(a)
}

// releaseTwice and releaseReadAfter are the release-record mutants.
func releaseTwice(s *shard, m *barrierMsg) {
	s.releaseBarrierMsg(m)
	s.releaseBarrierMsg(m) // want `double release: m already went back to its pool through releaseBarrierMsg`
}

func releaseReadAfter(s *shard, m *barrierMsg) int {
	s.releaseBarrierMsg(m)
	return m.proc // want `use after release: m went back to its pool through releaseBarrierMsg`
}

func releaseAbsorbed(s *shard, m *barrierMsg, clock []uint64) {
	copy(clock, m.merged.v)
	s.releaseBarrierMsg(m)
	m = s.grabBarrierMsg() // a fresh record under the old name
	s.releaseBarrierMsg(m)
}

// mergedLeak and mergedOverRelease are the merged-clock mutants: a clock no
// reader will ever return, and one reader returning its share twice.
func mergedLeak(s *shard, readers int) int {
	c := s.grabBarrierClock(readers) // want `pool leak: c is grabbed from a pool but never released`
	return len(c.v)
}

func mergedOverRelease(s *shard, c *barrierClock) {
	s.releaseBarrierClock(c)
	s.releaseBarrierClock(c) // want `double release: c already went back to its pool through releaseBarrierClock`
}

// mergedShared hands the clock to its readers; each lets go once.
func mergedShared(s *shard, msgs []*barrierMsg) {
	c := s.grabBarrierClock(len(msgs))
	for _, m := range msgs {
		m.merged = c
	}
	for _, m := range msgs {
		s.releaseBarrierClock(m.merged)
	}
}

// --- borrowed reports ---

type Report struct{ Seq uint64 }

func (r *Report) Clone() *Report { c := *r; return &c }

type detector struct {
	scratch Report
	last    *Report
	log     []*Report
}

func (d *detector) OnAccess(addr int) *Report {
	d.scratch.Seq++
	return &d.scratch
}

// record is the seeded mutant: the borrowed report is published into a
// field and a slice while still aliasing the detector's scratch buffer.
func record(d *detector) {
	r := d.OnAccess(1)
	d.last = r               // want `borrowed report: r aliases detector scratch`
	d.log = append(d.log, r) // want `borrowed report: r aliases detector scratch`
}

func recordAlias(d *detector) {
	r := d.OnAccess(2)
	r2 := r
	d.last = r2 // want `borrowed report: r2 aliases detector scratch`
}

func recordCloned(d *detector) {
	r := d.OnAccess(3)
	d.last = r.Clone()
	d.log = append(d.log, r.Clone())
}

func inspect(d *detector) uint64 {
	r := d.OnAccess(4)
	return r.Seq
}
