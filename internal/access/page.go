package access

import "context"

// Pager is the one sorted read of every layer of the backend stack
// (DESIGN.md §4, "The Page contract"), shaped like io.Reader: Page fills
// buf[:n] with the entries of ranks from, from+1, ... of pred's descending
// list and returns either n >= 1 and a nil error or n = 0 and an error. A
// short page is not an error. A layer returns only what the source work
// for rank from already made available — the rest of a cached block, a
// merged or shared prefix, one shard page — and never fetches further to
// fill buf, so reading pages performs exactly the source work reading
// entries did. buf is non-empty and from in [0, N); no layer keeps buf or
// ctx past the call.
type Pager interface {
	Page(ctx context.Context, pred, from int, buf []Entry) (n int, err error)
}

// Pages returns b's paged read: b itself when it pages, otherwise the one
// per-entry adapter, which serves a backend that only has Sorted (test
// fakes, third-party sources) one entry per call.
func Pages(b Backend) Pager {
	if p, ok := b.(Pager); ok {
		return p
	}
	return entryPager{b}
}

// entryPager pages a backend through its Sorted, one entry at a time.
type entryPager struct{ b Backend }

// Page reads the entry at rank from.
func (p entryPager) Page(ctx context.Context, pred, from int, buf []Entry) (int, error) {
	obj, score, err := p.b.Sorted(ctx, pred, from)
	if err != nil {
		return 0, err
	}
	buf[0] = Entry{Obj: obj, Score: score}
	return 1, nil
}

// SortedAt reads the entry at rank as a page of one. Every layer derives
// its Sorted from its Page with it, in one line:
//
//	return access.Fields(access.SortedAt(ctx, l, pred, rank))
//
// Backend keeps Sorted for callers that time or probe a layer one entry at
// a time (calibration, readiness checks, the benchmark ladder); nothing
// that answers a query calls it. SortedAt stays within the compiler's
// inlining budget: inlined into a layer's Sorted, its Page call is
// devirtualized, and the one-entry buffer stays on the stack unless the
// layer's Page hands it on to a layer below.
func SortedAt(ctx context.Context, p Pager, pred, rank int) (e Entry, err error) {
	buf := [1]Entry{}
	_, err = p.Page(ctx, pred, rank, buf[:])
	return buf[0], err
}

// Fields spreads an entry and its error into Sorted's results.
func Fields(e Entry, err error) (int, float64, error) { return e.Obj, e.Score, err }

// ReadAheadCounter is implemented by the layers that count the sorted
// entries they serve (the store, the sharing layer, the coordinator). Page
// counts only the entry at rank from, which a reader always consumes; a
// reader that consumed more of a page reports those entries — the
// read-ahead it used — once it is done with the page. Counts only rise, so
// a scrape taken mid-run never sees one go back, and once every page is
// reported a count of entries served is a count of sorted accesses billed.
// Read-ahead is never source work of its own: it is what the work for the
// page's first entry made available, and a page whose first entry drove a
// shared prefix's fetch carries nothing else.
type ReadAheadCounter interface {
	Consumed(pred, n int)
}

// Consumed reports to b that a reader consumed n entries of pred beyond the
// first of the pages b served it, when b counts them.
func Consumed(b Backend, pred, n int) {
	if c, ok := b.(ReadAheadCounter); ok && n > 0 {
		c.Consumed(pred, n)
	}
}

// Window is a buffered reader over one paged sorted list: the page last
// read and how much of it is still unread. The coordinator's shard cursor
// heads and the session's per-predicate windows are Windows. Only the read
// that owns a Window's buffer writes it; the Window is read only after that
// read has returned.
type Window struct {
	page []Entry // the page last read; page[pos:] is unread
	pos  int
	from int // the rank of page[0]
}

// Rank is the rank of the next unread entry.
func (w *Window) Rank() int { return w.from + w.pos }

// End is the rank just past the page.
func (w *Window) End() int { return w.from + len(w.page) }

// Len is how many entries of the page are still unread.
func (w *Window) Len() int { return len(w.page) - w.pos }

// Peek returns the next unread entry (Len > 0).
func (w *Window) Peek() Entry { return w.page[w.pos] }

// Next consumes the next unread entry (Len > 0).
//
//topklint:hotpath
func (w *Window) Next() Entry { w.pos++; return w.page[w.pos-1] }

// Drop empties the window, keeping its buffer, and returns how many of the
// page's entries were consumed.
func (w *Window) Drop() (consumed int) {
	consumed = w.pos
	w.from, w.page, w.pos = w.Rank(), w.page[:0], 0
	return consumed
}

// Last returns the page's last entry, consumed or not; ok is false when
// the window holds no page.
func (w *Window) Last() (e Entry, ok bool) {
	if len(w.page) == 0 {
		return e, false
	}
	return w.page[len(w.page)-1], true
}

// Land makes page, read at rank from, the window's content, and returns
// the previous page's buffer for reuse.
func (w *Window) Land(from int, page []Entry) (old []Entry) {
	old, w.page, w.pos, w.from = w.page[:0], page, 0, from
	return old
}

// Fill replaces the window with the next stretch of the list: it reads
// pages from End() until the window holds size entries, the list reaches
// end, or a read fails — so a layer that serves one entry per call fills it
// as surely as one that serves whole pages. What was read before a failure
// stays in the window, and the next Fill resumes after it.
func (w *Window) Fill(ctx context.Context, p Pager, pred, end, size int) (err error) {
	w.from, w.pos, w.page = w.End(), 0, w.page[:0]
	if cap(w.page) < size {
		w.page = make([]Entry, 0, size)
	}
	for len(w.page) < size && w.End() < end && err == nil {
		var n int
		n, err = p.Page(ctx, pred, w.End(), w.page[len(w.page):cap(w.page)])
		w.page = w.page[:len(w.page)+n]
	}
	return err
}
