// Package reqscan reads one line of a /diagnose NDJSON body: a request
// object {"id", "features", "explain"}. Scan reads the line once and
// accepts and rejects exactly the lines that encoding/json accepts and
// rejects when it unmarshals them into serve.Request:
//
//   - field names match case-insensitively, under encoding/json's
//     folding ("ID", "Features", "featureſ" all bind);
//   - a later "features" object merges into an earlier one, a later
//     "features":null drops the features read so far, and the last of
//     duplicate keys wins;
//   - a feature value is a number or null (stored as 0); a string,
//     bool, object or array rejects the line, and so does a number
//     beyond float64's range, on any feature key;
//   - "id" is a string and "explain" a bool; null leaves either as it
//     was, and unknown top-level fields are skipped;
//   - a bare null is an empty request;
//   - escaped keys match after unescaping, and invalid UTF-8 and lone
//     surrogates read as U+FFFD;
//   - nesting deeper than 10,000 levels rejects the line.
//
// It parses a feature value into a float64 only when its key is in the
// caller's wanted set, and writes it into that key's slot of a
// caller-supplied []float64, so a line's values cost no map; every
// other value gets its syntax and range check and is skipped. vqserve
// scans against its model's plan keys, vqroute with no wanted keys, for
// the id alone. The package uses only the standard library, so the
// router links no engine code.
//
// A wide row is mostly keys and numbers nobody reads, so the scanner
// steps over string and digit runs a machine word at a time, two
// 8-byte words per step, and a bit filter turns most unwanted keys
// away before the wanted set's map is hashed.
package reqscan

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"math/bits"
	"strconv"
	"unicode/utf16"
	"unicode/utf8"
)

// FirstLineHeader names the /diagnose request header that carries the
// input line number of the body's first line. vqroute sends each
// replica a contiguous range of its client's body and sets it, so the
// replica numbers its per-line errors as the client counts its lines.
const FirstLineHeader = "Vq-First-Line"

// FirstLine reads a FirstLineHeader value: absent ("") is 1, and
// anything but a positive decimal integer is an error.
func FirstLine(v string) (int, error) {
	if v == "" {
		return 1, nil
	}
	n, err := strconv.Atoi(v)
	if err != nil || n < 1 {
		return 0, fmt.Errorf("%s: want a positive integer, got %q", FirstLineHeader, v)
	}
	return n, nil
}

// maxDepth is encoding/json's nesting limit; a deeper line is rejected.
const maxDepth = 10000

// Keys is the set of feature names whose values Scan parses; a nil
// *Keys holds none. Each name has a slot: NewKeys numbers the distinct
// names 0, 1, … in order of first appearance.
type Keys struct {
	// slots maps each name to its slot.
	slots map[string]int
	// filter has bit keyHash(name) set for every name. A key whose bit
	// is clear is not in the set, and is not hashed through slots.
	filter [filterBits / 64]uint64
}

// filterBits is the filter's size: with a model's tens of plan keys,
// a few percent of unwanted keys pass it and take the map lookup.
const (
	filterLog  = 12
	filterBits = 1 << filterLog
)

// NewKeys returns the set of the given names; a repeated name keeps
// its first slot.
func NewKeys(names ...string) *Keys {
	k := &Keys{slots: make(map[string]int, len(names))}
	for _, n := range names {
		if _, dup := k.slots[n]; dup {
			continue
		}
		k.slots[n] = len(k.slots)
		h := keyHash([]byte(n))
		k.filter[h/64] |= 1 << (h % 64)
	}
	return k
}

// Len returns the number of slots, the length Scan needs of vals.
func (k *Keys) Len() int {
	if k == nil {
		return 0
	}
	return len(k.slots)
}

// lookup returns key's slot, or -1 when key is not in the set.
func (k *Keys) lookup(key []byte) int {
	if k == nil {
		return -1
	}
	if h := keyHash(key); k.filter[h/64]&(1<<(h%64)) == 0 {
		return -1
	}
	if slot, ok := k.slots[string(key)]; ok {
		return slot
	}
	return -1
}

// keyHash is the filter's hash of a key: its length and its first and
// last 8 bytes, which is where feature names differ (a VP prefix, a
// statistic suffix), mixed by one multiply into filterLog bits.
func keyHash(key []byte) uint {
	n := len(key)
	var first, last uint64
	if n >= 8 {
		first = binary.LittleEndian.Uint64(key)
		last = binary.LittleEndian.Uint64(key[n-8:])
	} else {
		for i, c := range key {
			first |= uint64(c) << (8 * i)
		}
	}
	h := (first ^ bits.RotateLeft64(last, 31) ^ uint64(n)) * 0x9E3779B97F4A7C15
	return uint(h >> (64 - filterLog))
}

// Request is one scanned line; its feature values are in the vals
// passed to Scan.
type Request struct {
	ID      string
	Explain bool
}

var (
	fieldID       = []byte("id")
	fieldFeatures = []byte("features")
	fieldExplain  = []byte("explain")
)

// absent fills the slot of a wanted key the line does not carry. No
// decoded value is NaN: JSON has no NaN, and a number beyond float64's
// range rejects the line.
var absent = math.NaN()

// Scan reads one request line, writing the value of each wanted key it
// carries into vals at the key's slot and NaN into every other slot;
// vals must hold at least keys.Len() slots, and nil keys parse none.
// On an error vals holds no meaning. The error says what is wrong and
// at which byte.
func Scan(line []byte, keys *Keys, vals []float64) (Request, error) {
	s := scanner{b: line, keys: keys, vals: vals[:keys.Len()]}
	s.reset()
	var r Request
	s.i = ws(s.b, s.i)
	var err error
	switch s.peek() {
	case '{':
		err = s.object(&r)
	case 'n':
		err = s.literal("null") // a bare null is an empty request
	default:
		err = s.mismatch("the request", "an object")
	}
	if err == nil {
		s.i = ws(s.b, s.i)
		if s.i < len(s.b) {
			err = s.invalid("after the request object")
		}
	}
	if err != nil {
		return Request{}, err
	}
	return r, nil
}

// scanner is one line being read; i is the next unread byte, except
// inside key, str, number and next, which take and return positions
// (see key).
type scanner struct {
	b    []byte
	i    int
	keys *Keys
	vals []float64 // one slot per wanted key
	tmp  []byte    // unescaped key or id, when the raw text has escapes or non-ASCII bytes
}

// reset marks every wanted key absent.
func (s *scanner) reset() {
	for i := range s.vals {
		s.vals[i] = absent
	}
}

func (s *scanner) peek() byte { return at(s.b, s.i) }

// at returns b[i], or 0 past the end of b.
func at(b []byte, i int) byte {
	if i < len(b) {
		return b[i]
	}
	return 0
}

// ws returns the index of the first byte at or after b[i] that is not
// JSON whitespace. Compact NDJSON has none, so it returns at once on
// the byte above ' ' that always sits there.
func ws(b []byte, i int) int {
	if i < len(b) && b[i] > ' ' {
		return i
	}
	for i < len(b) && b[i] <= ' ' && (b[i] == ' ' || b[i] == '\t' || b[i] == '\r' || b[i] == '\n') {
		i++
	}
	return i
}

// errEOL reports a line that ends inside a value.
var errEOL = errors.New("unexpected end of line")

// invalid reports the byte at s.i, or the end of the line.
func (s *scanner) invalid(where string) error {
	if s.i >= len(s.b) {
		return errEOL
	}
	return fmt.Errorf("invalid character %q %s at byte %d", s.b[s.i], where, s.i)
}

// mismatch reports that the value at s.i is not the kind field needs:
// a syntax error when no value starts there, else a type error.
func (s *scanner) mismatch(field, want string) error {
	var got string
	switch s.peek() {
	case '{':
		got = "an object"
	case '[':
		got = "an array"
	case '"':
		got = "a string"
	case 't', 'f':
		got = "a bool"
	case 'n':
		got = "null"
	case '-', '0', '1', '2', '3', '4', '5', '6', '7', '8', '9':
		got = "a number"
	default:
		return s.invalid("looking for a value")
	}
	return fmt.Errorf("%s must be %s, not %s (byte %d)", field, want, got, s.i)
}

// next reads the separator after a member or element, which ended
// before b[i], and returns the index past it: done is true at the
// container's closing byte and false after a comma.
func (s *scanner) next(i int, closer byte) (j int, done bool, err error) {
	i = ws(s.b, i)
	switch at(s.b, i) {
	case ',':
		return i + 1, false, nil
	case closer:
		return i + 1, true, nil
	}
	s.i = i
	return i, false, s.invalid("after a value")
}

// object reads the request object at s.i.
func (s *scanner) object(r *Request) error {
	s.i++
	s.i = ws(s.b, s.i)
	if s.peek() == '}' {
		s.i++
		return nil
	}
	for {
		key, i, err := s.key(s.i)
		if err != nil {
			return err
		}
		s.i = i
		switch {
		case bytes.EqualFold(key, fieldFeatures):
			err = s.features()
		case bytes.EqualFold(key, fieldID):
			err = s.id(r)
		case bytes.EqualFold(key, fieldExplain):
			err = s.explain(r)
		default:
			err = s.skip(1)
		}
		if err != nil {
			return err
		}
		var done bool
		if s.i, done, err = s.next(s.i, '}'); done || err != nil {
			return err
		}
	}
}

// key reads the object key at b[i], after any whitespace, and its
// colon, and returns the key and the index of the value. The key's
// bytes are unescaped and valid only until the next key.
//
// The hot loops pass positions like i in and out rather than through
// s.i, which they set only to report an error: a row's every key and
// value would otherwise store s.i and load it straight back.
func (s *scanner) key(i int) (key []byte, val int, err error) {
	b := s.b
	i = ws(b, i)
	if at(b, i) != '"' {
		s.i = i
		return nil, 0, s.invalid("looking for an object key")
	}
	raw, plain, err := s.str(i)
	if err != nil {
		return nil, 0, err
	}
	i = ws(b, i+len(raw)+2) // past both quotes
	if at(b, i) != ':' {
		s.i = i
		return nil, 0, s.invalid("after an object key")
	}
	return s.text(raw, plain), ws(b, i+1), nil
}

// features reads the "features" value: an object's wanted keys fill
// their slots, over what an earlier object left; null empties every
// slot.
func (s *scanner) features() error {
	switch s.peek() {
	case 'n':
		s.reset()
		return s.literal("null")
	case '{':
	default:
		return s.mismatch(`"features"`, "an object")
	}
	b := s.b
	i := ws(b, s.i+1)
	if at(b, i) == '}' {
		s.i = i + 1
		return nil
	}
	for {
		key, j, err := s.key(i)
		if err != nil {
			return err
		}
		slot := s.keys.lookup(key)
		want := slot >= 0
		v := 0.0 // null stores 0, as encoding/json does
		switch c := at(b, j); {
		case c == '-' || c-'0' < 10:
			num, mant, err := s.number(j)
			if err != nil {
				return err
			}
			j += len(num)
			if want {
				v, err = strconv.ParseFloat(string(num), 64)
			} else if overflows(num, mant) {
				err = strconv.ErrRange
			}
			if err != nil {
				return fmt.Errorf("feature %q: number %s is out of float64 range", key, num)
			}
		case c == 'n':
			s.i = j
			if err := s.literal("null"); err != nil {
				return err
			}
			j = s.i
		default:
			s.i = j
			return s.mismatch(fmt.Sprintf("feature %q", key), "a number")
		}
		if want {
			s.vals[slot] = v
		}
		var done bool
		if i, done, err = s.next(j, '}'); done || err != nil {
			s.i = i // past the object when done, at the bad byte on error
			return err
		}
	}
}

func (s *scanner) id(r *Request) error {
	switch s.peek() {
	case '"':
		raw, plain, err := s.str(s.i)
		if err != nil {
			return err
		}
		s.i += len(raw) + 2
		r.ID = string(s.text(raw, plain))
		return nil
	case 'n':
		return s.literal("null")
	}
	return s.mismatch(`"id"`, "a string")
}

func (s *scanner) explain(r *Request) error {
	switch s.peek() {
	case 't':
		r.Explain = true
		return s.literal("true")
	case 'f':
		r.Explain = false
		return s.literal("false")
	case 'n':
		return s.literal("null")
	}
	return s.mismatch(`"explain"`, "a bool")
}

// literal consumes word (true, false or null) at s.i.
func (s *scanner) literal(word string) error {
	for k := 0; k < len(word); k++ {
		if s.peek() != word[k] {
			return s.invalid("in literal " + word)
		}
		s.i++
	}
	return nil
}

// str reads the string whose opening quote is b[q] and returns the raw
// bytes between its quotes, so it ends before b[q+len(raw)+2]; plain
// reports that they hold neither escapes nor non-ASCII bytes, so they
// need no unescaping.
func (s *scanner) str(q int) (raw []byte, plain bool, err error) {
	b := s.b
	start := q + 1
	i := start
	plain = true
	for {
		i = plainRun(b, i)
		if i >= len(b) {
			return nil, false, errEOL
		}
		switch c := b[i]; {
		case c == '"':
			return b[start:i], plain, nil
		case c == '\\':
			plain = false
			switch at(b, i+1) {
			case '"', '\\', '/', 'b', 'f', 'n', 'r', 't':
				i += 2
			case 'u':
				for k := i + 2; k < i+6; k++ {
					if unhex(at(b, k)) < 0 {
						s.i = k
						return nil, false, s.invalid("in a \\u escape")
					}
				}
				i += 6
			default:
				s.i = i + 1
				return nil, false, s.invalid("in a string escape")
			}
		case c < 0x20:
			s.i = i
			return nil, false, s.invalid("in a string")
		default: // a byte of a multi-byte character
			plain = false
			i++
		}
	}
}

// Word masks: each byte of lo7 is 0x7f, of hi 0x80, and each byte of
// rep(c) is c.
const (
	lo7 = 0x7f7f7f7f7f7f7f7f
	hi  = 0x8080808080808080
)

func rep(c byte) uint64 { return uint64(c) * 0x0101010101010101 }

// special returns, for the 8 string bytes of w (the first in the low
// byte), 0x80 in the place of each byte that is not a plainByte: a
// quote, a backslash, a control byte or a non-ASCII byte, and 0
// elsewhere. Every per-byte sum below stays under 0x100, so no carry
// crosses into the next byte and the mask is exact.
func special(w uint64) uint64 {
	low := w & lo7
	quote := (low ^ rep('"')) + lo7      // high bit set unless the byte is a quote
	backslash := (low ^ rep('\\')) + lo7 // unless it is a backslash
	printable := low + rep(0x80-' ')     // set when it is ' ' or above
	return (w | ^(quote & backslash & printable)) & hi
}

// nonDigit returns, for the 8 bytes of w, 0x80 in the place of each
// byte that is not a decimal digit and 0 elsewhere; exact, as special.
func nonDigit(w uint64) uint64 {
	low := w & lo7
	atLeast0 := low + rep(0x80-'0')
	above9 := low + rep(0x80-'9'-1)
	return (w | ^atLeast0 | above9) & hi
}

// firstByte returns the index of the first flagged byte of the 16
// whose masks are m1 and m2, one of them non-zero.
func firstByte(m1, m2 uint64) int {
	t1 := bits.TrailingZeros64(m1) // 64 when m1 is 0
	t2 := bits.TrailingZeros64(m2)
	return (t1 + t2&-(t1>>6)) / 8
}

// plainByte marks the bytes a string holds as themselves: printable
// ASCII other than the quote and the backslash.
var plainByte = func() (t [256]bool) {
	for c := ' '; c < utf8.RuneSelf; c++ {
		t[c] = c != '"' && c != '\\'
	}
	return t
}()

// text returns a string's value from its raw bytes, unescaping into
// s.tmp when they are not plain.
func (s *scanner) text(raw []byte, plain bool) []byte {
	if plain {
		return raw
	}
	s.tmp = appendUnquoted(s.tmp[:0], raw)
	return s.tmp
}

// number reads the JSON number at b[start] and returns its text and
// the length of its mantissa, the text before any exponent.
func (s *scanner) number(start int) (num []byte, mant int, err error) {
	b := s.b
	i := start
	if at(b, i) == '-' {
		i++
	}
	switch c := at(b, i); {
	case c == '0':
		i++
	case c-'1' < 9:
		i = digits(b, i)
	default:
		s.i = i
		return nil, 0, s.invalid("in a number")
	}
	if at(b, i) == '.' {
		i++
		j := digits(b, i)
		if j == i {
			s.i = i
			return nil, 0, s.invalid("after a decimal point")
		}
		i = j
	}
	mant = i - start
	if c := at(b, i); c == 'e' || c == 'E' {
		i++
		if c := at(b, i); c == '+' || c == '-' {
			i++
		}
		j := digits(b, i)
		if j == i {
			s.i = i
			return nil, 0, s.invalid("in an exponent")
		}
		i = j
	}
	return b[start:i], mant, nil
}

// plainRun returns the end of the run of plainBytes at b[i:].
func plainRun(b []byte, i int) int {
	for i+16 <= len(b) {
		w := b[i : i+16]
		m1 := special(binary.LittleEndian.Uint64(w))
		m2 := special(binary.LittleEndian.Uint64(w[8:]))
		if m1|m2 != 0 {
			return i + firstByte(m1, m2)
		}
		i += 16
	}
	for i < len(b) && plainByte[b[i]] {
		i++
	}
	return i
}

// digits returns the end of the run of decimal digits at b[i:].
func digits(b []byte, i int) int {
	for i+16 <= len(b) {
		w := b[i : i+16]
		m1 := nonDigit(binary.LittleEndian.Uint64(w))
		m2 := nonDigit(binary.LittleEndian.Uint64(w[8:]))
		if m1|m2 != 0 {
			return i + firstByte(m1, m2)
		}
		i += 16
	}
	for i < len(b) && b[i]-'0' < 10 {
		i++
	}
	return i
}

// skip checks the syntax of the value at s.i, which sits at nesting
// depth, and moves past it. It walks nested containers with its own
// stack, so a deep line costs no Go stack.
func (s *scanner) skip(depth int) error {
	var arr [32]byte
	open := arr[:0] // '{' or '[' per container entered
	for {
		switch c := s.peek(); {
		case c == '{' || c == '[':
			if depth+len(open) >= maxDepth {
				return fmt.Errorf("nesting deeper than %d at byte %d", maxDepth, s.i)
			}
			open = append(open, c)
			s.i++
			s.i = ws(s.b, s.i)
			if s.peek() == c+2 { // '}' and ']' sit two past '{' and '['
				s.i++
				open = open[:len(open)-1]
				break
			}
			if c == '{' {
				_, i, err := s.key(s.i)
				if err != nil {
					return err
				}
				s.i = i
			}
			continue // read the first member's value
		case c == '"':
			raw, _, err := s.str(s.i)
			if err != nil {
				return err
			}
			s.i += len(raw) + 2
		case c == '-' || '0' <= c && c <= '9':
			num, _, err := s.number(s.i)
			if err != nil {
				return err
			}
			s.i += len(num)
		case c == 't':
			if err := s.literal("true"); err != nil {
				return err
			}
		case c == 'f':
			if err := s.literal("false"); err != nil {
				return err
			}
		case c == 'n':
			if err := s.literal("null"); err != nil {
				return err
			}
		default:
			return s.invalid("looking for a value")
		}
		// A value ended: close every container it completes, then step
		// to the next member or element.
		for {
			if len(open) == 0 {
				return nil
			}
			top := open[len(open)-1]
			i, done, err := s.next(s.i, top+2)
			if err != nil {
				return err
			}
			s.i = i
			if !done {
				if top == '{' {
					_, i, err := s.key(s.i)
					if err != nil {
						return err
					}
					s.i = i
				} else {
					s.i = ws(s.b, s.i)
				}
				break
			}
			open = open[:len(open)-1]
		}
	}
}

// overflows reports whether a JSON number, whose mantissa is its first
// mant bytes, lies beyond float64's range, which encoding/json rejects
// even on a key nothing reads. A mantissa of at most 100 bytes is below
// 1e100, so with no exponent, a negative one or one up to 200 the
// number is below 1e300; only the rest are parsed.
func overflows(num []byte, mant int) bool {
	if mant <= 100 {
		exp := num[mant:]
		if len(exp) == 0 || exp[1] == '-' {
			return false
		}
		exp = exp[1:]
		if exp[0] == '+' {
			exp = exp[1:]
		}
		if len(exp) <= 3 {
			n := 0
			for _, c := range exp {
				n = 10*n + int(c-'0')
			}
			if n <= 200 {
				return false
			}
		}
	}
	_, err := strconv.ParseFloat(string(num), 64)
	return err != nil
}

// appendUnquoted appends the value of a syntax-checked string's raw
// bytes, decoding escapes the way encoding/json does: a surrogate that
// is not half of a valid pair, and each invalid UTF-8 byte, become
// U+FFFD.
func appendUnquoted(dst, raw []byte) []byte {
	for i := 0; i < len(raw); {
		c := raw[i]
		switch {
		case c == '\\':
			switch e := raw[i+1]; e {
			case 'b':
				dst = append(dst, '\b')
			case 'f':
				dst = append(dst, '\f')
			case 'n':
				dst = append(dst, '\n')
			case 'r':
				dst = append(dst, '\r')
			case 't':
				dst = append(dst, '\t')
			case 'u':
				r := hex4(raw[i+2:])
				i += 6
				if utf16.IsSurrogate(r) {
					if i+6 <= len(raw) && raw[i] == '\\' && raw[i+1] == 'u' {
						if d := utf16.DecodeRune(r, hex4(raw[i+2:])); d != utf8.RuneError {
							dst = utf8.AppendRune(dst, d)
							i += 6
							continue
						}
					}
					r = utf8.RuneError
				}
				dst = utf8.AppendRune(dst, r)
				continue
			default: // '"', '\\' or '/'
				dst = append(dst, e)
			}
			i += 2
		case c < utf8.RuneSelf:
			dst = append(dst, c)
			i++
		default:
			r, n := utf8.DecodeRune(raw[i:])
			dst = utf8.AppendRune(dst, r)
			i += n
		}
	}
	return dst
}

// hex4 decodes the four hex digits at the start of b.
func hex4(b []byte) rune {
	var r rune
	for _, c := range b[:4] {
		r = r<<4 | rune(unhex(c))
	}
	return r
}

func unhex(c byte) int {
	switch {
	case '0' <= c && c <= '9':
		return int(c - '0')
	case 'a' <= c && c <= 'f':
		return int(c - 'a' + 10)
	case 'A' <= c && c <= 'F':
		return int(c - 'A' + 10)
	}
	return -1
}
