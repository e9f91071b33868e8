package physical

import (
	"natix/internal/dom"
	"natix/internal/nvm"
)

// Node-identity bitmap geometry: a chunk covers 4096 consecutive node IDs
// in 64 words.
const (
	chunkShift = 12
	chunkWords = 1 << chunkShift / 64
)

// nodeSet is the node-identity set of duplicate elimination (Π^D). Both
// backends number nodes densely in pre-order, 1..NodeCount(), so the nodes
// of one document — the first the set sees after a reset — live in a
// bitmap over NodeID. The bitmap is cut into chunks allocated on first
// touch; the touched list makes reset cost O(chunks touched), not
// O(capacity ever grown), which matters where a set is reset per nested
// evaluation or per exchange task. Everything else — the nil node, IDs
// above the bound, nodes of another document, and the non-node keys of the
// scalar protocol — goes to an overflow map keyed by identity.
type nodeSet struct {
	// The bitmap's document: its identity and node count. chunks[i] holds
	// IDs [i<<chunkShift, (i+1)<<chunkShift) and is non-nil exactly when i
	// is in touched.
	bound   bool
	docID   uint64
	limit   uint32
	chunks  []*[chunkWords]uint64
	touched []uint32
	// free recycles chunks zeroed by reset.
	free []*[chunkWords]uint64
	// One-entry DocID cache: the last Document seen, its identity, and
	// whether that is the bitmap's document.
	lastDoc   dom.Document
	lastDocID uint64
	lastIn    bool
	// over holds every key the bitmap cannot; nil until first needed.
	over map[any]struct{}
}

// nodeIdent is a node's identity in the overflow map: the same identity as
// nvm.Val.Key() (document ID plus node ID). The nil node is the zero
// nodeIdent whatever its document.
type nodeIdent struct {
	doc uint64
	id  dom.NodeID
}

// reset empties the set. The bitmap forgets its document, so the next
// node seen binds it afresh.
func (s *nodeSet) reset() {
	for _, c := range s.touched {
		ch := s.chunks[c]
		*ch = [chunkWords]uint64{}
		s.free = append(s.free, ch)
		s.chunks[c] = nil
	}
	s.touched = s.touched[:0]
	s.bound = false
	s.lastDoc = nil
	s.lastIn = false
	if len(s.over) > 0 {
		// Dropped rather than cleared: clearing costs O(capacity ever
		// grown), the very cost the bitmap avoids.
		s.over = nil
	}
}

// addNode inserts nd, reporting whether it was absent.
func (s *nodeSet) addNode(nd dom.Node) bool {
	if nd.Doc != s.lastDoc {
		s.see(nd.Doc)
	}
	// ID 0 (the nil node) wraps around and fails the bound check.
	if s.lastIn && uint32(nd.ID)-1 < s.limit {
		c := uint32(nd.ID) >> chunkShift
		ch := s.chunks[c]
		if ch == nil {
			ch = s.chunk()
			s.chunks[c] = ch
			s.touched = append(s.touched, c)
		}
		w, bit := &ch[(nd.ID>>6)%chunkWords], uint64(1)<<(nd.ID%64)
		if *w&bit != 0 {
			return false
		}
		*w |= bit
		return true
	}
	if nd.IsNil() {
		return s.addKey(nodeIdent{})
	}
	return s.addKey(nodeIdent{doc: s.lastDocID, id: nd.ID})
}

// addVal inserts a register value: nodes by identity, everything else by
// its scalar key in the overflow map.
func (s *nodeSet) addVal(v nvm.Val) bool {
	if v.IsNode() {
		return s.addNode(v.Node())
	}
	return s.addKey(v.Key())
}

// addKey inserts k into the overflow map, reporting whether it was absent.
func (s *nodeSet) addKey(k any) bool {
	if _, dup := s.over[k]; dup {
		return false
	}
	if s.over == nil {
		s.over = make(map[any]struct{})
	}
	s.over[k] = struct{}{}
	return true
}

// see refreshes the DocID cache for doc, binding the bitmap to it if the
// set has no document yet.
func (s *nodeSet) see(doc dom.Document) {
	s.lastDoc = doc
	s.lastIn = false
	if doc == nil {
		return
	}
	s.lastDocID = doc.DocID()
	if !s.bound {
		s.bound = true
		s.docID = s.lastDocID
		s.limit = uint32(doc.NodeCount())
		n := int(s.limit>>chunkShift) + 1
		if n > cap(s.chunks) {
			s.chunks = make([]*[chunkWords]uint64, n)
		}
		// Entries past the old length are nil: reset nils every chunk it
		// zeroes.
		s.chunks = s.chunks[:n]
	}
	s.lastIn = s.lastDocID == s.docID
}

// chunk returns a zeroed chunk, recycled when one is free.
func (s *nodeSet) chunk() *[chunkWords]uint64 {
	if k := len(s.free); k > 0 {
		ch := s.free[k-1]
		s.free = s.free[:k-1]
		return ch
	}
	return new([chunkWords]uint64)
}

// dedup is the duplicate elimination shared by DupElim (both protocols)
// and the exchange workers' per-task pre-deduplication: a nodeSet plus the
// governor charge its keys hold, keyBytes per distinct key.
type dedup struct {
	set     nodeSet
	charged int64
}

// reset empties the set and releases its charge.
func (d *dedup) reset(ex *Exec) {
	ex.Gov.Release(d.charged)
	d.charged = 0
	d.set.reset()
}

// filter copies the first occurrences among in to out (which may alias in)
// and returns their count. Drops count into Stats.DupDropped; the batch's
// new keys are charged at once.
func (d *dedup) filter(ex *Exec, out, in []dom.Node) (int, error) {
	n := 0
	for _, nd := range in {
		if d.set.addNode(nd) {
			out[n] = nd
			n++
		}
	}
	ex.Stats.DupDropped += int64(len(in) - n)
	if n > 0 {
		if err := ex.Gov.Grow(keyBytes * int64(n)); err != nil {
			return 0, err
		}
		d.charged += keyBytes * int64(n)
	}
	return n, nil
}

// admit is the one-tuple form of filter for the scalar protocol: it
// reports whether v is a first occurrence, charging its key if so.
func (d *dedup) admit(ex *Exec, v nvm.Val) (bool, error) {
	if !d.set.addVal(v) {
		ex.Stats.DupDropped++
		return false, nil
	}
	if err := ex.Gov.Grow(keyBytes); err != nil {
		return false, err
	}
	d.charged += keyBytes
	return true, nil
}
