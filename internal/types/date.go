package types

import (
	"fmt"
	"strconv"
)

// Date is a calendar date stored as days since the Unix epoch
// (1970-01-01). TPC-H date columns span 1992-01-01 .. 1998-12-31, far
// inside the int32 range. Dates compare with ordinary integer operators,
// which is what the compiled query code relies on.
type Date int32

// MakeDate builds a Date from a proleptic Gregorian year, month and day.
// The algorithm is the classical days-from-civil conversion (Howard
// Hinnant); it is exact for all representable dates.
func MakeDate(year, month, day int) Date {
	y := int64(year)
	if month <= 2 {
		y--
	}
	var era int64
	if y >= 0 {
		era = y / 400
	} else {
		era = (y - 399) / 400
	}
	yoe := y - era*400 // [0, 399]
	m := int64(month)
	d := int64(day)
	var doy int64
	if m > 2 {
		doy = (153*(m-3)+2)/5 + d - 1
	} else {
		doy = (153*(m+9)+2)/5 + d - 1
	}
	doe := yoe*365 + yoe/4 - yoe/100 + doy
	return Date(era*146097 + doe - 719468)
}

// Civil returns the year, month and day of d.
func (d Date) Civil() (year, month, day int) {
	z := int64(d) + 719468
	var era int64
	if z >= 0 {
		era = z / 146097
	} else {
		era = (z - 146096) / 146097
	}
	doe := z - era*146097
	yoe := (doe - doe/1460 + doe/36524 - doe/146096) / 365
	y := yoe + era*400
	doy := doe - (365*yoe + yoe/4 - yoe/100)
	mp := (5*doy + 2) / 153
	day = int(doy - (153*mp+2)/5 + 1)
	if mp < 10 {
		month = int(mp + 3)
	} else {
		month = int(mp - 9)
	}
	if month <= 2 {
		y++
	}
	return int(y), month, day
}

// AddDays returns d shifted by n days.
func (d Date) AddDays(n int) Date { return d + Date(n) }

// Year returns the calendar year of d (SQL's EXTRACT(YEAR FROM d), used
// by the TPC-H queries that group by year).
func (d Date) Year() int {
	y, _, _ := d.Civil()
	return y
}

// AddMonths returns d shifted by n calendar months, clamping the day to
// the target month's length (matching SQL date arithmetic used by the
// TPC-H query parameters).
func (d Date) AddMonths(n int) Date {
	y, m, day := d.Civil()
	tm := y*12 + (m - 1) + n
	ny, nm := tm/12, tm%12+1
	if nm < 1 {
		nm += 12
		ny--
	}
	if dim := daysInMonth(ny, nm); day > dim {
		day = dim
	}
	return MakeDate(ny, nm, day)
}

// AddYears returns d shifted by n years (clamping Feb 29).
func (d Date) AddYears(n int) Date { return d.AddMonths(12 * n) }

func daysInMonth(y, m int) int {
	switch m {
	case 1, 3, 5, 7, 8, 10, 12:
		return 31
	case 4, 6, 9, 11:
		return 30
	default:
		if isLeap(y) {
			return 29
		}
		return 28
	}
}

func isLeap(y int) bool { return y%4 == 0 && (y%100 != 0 || y%400 == 0) }

// maxDateJSONLen bounds AppendJSON's output: two quotes, the eight
// characters of an int32 day count's widest year (-5877641), and -MM-DD.
const maxDateJSONLen = 2 + 8 + 6

// AppendJSON appends the date's wire form — the quoted YYYY-MM-DD string
// the serve layer's schemas declare ({"type":"string","format":"date"})
// — to dst without allocating. It is the one formatting path: String and
// MarshalJSON are built on it. The year is zero-padded to four
// characters, sign included, as fmt's %04d does.
func (d Date) AppendJSON(dst []byte) []byte {
	y, m, dd := d.Civil()
	dst = append(dst, '"')
	pad := 1000
	if y < 0 {
		dst = append(dst, '-')
		y, pad = -y, 100
	}
	for ; pad > 1 && y < pad; pad /= 10 {
		dst = append(dst, '0')
	}
	dst = strconv.AppendInt(dst, int64(y), 10)
	dst = append(dst, '-', byte('0'+m/10), byte('0'+m%10), '-', byte('0'+dd/10), byte('0'+dd%10), '"')
	return dst
}

// String formats the date as YYYY-MM-DD.
func (d Date) String() string {
	var buf [maxDateJSONLen]byte
	b := d.AppendJSON(buf[:0])
	return string(b[1 : len(b)-1])
}

// MarshalJSON encodes the date as a quoted YYYY-MM-DD string.
func (d Date) MarshalJSON() ([]byte, error) {
	return d.AppendJSON(make([]byte, 0, maxDateJSONLen)), nil
}

// UnmarshalJSON decodes a quoted YYYY-MM-DD string.
func (d *Date) UnmarshalJSON(b []byte) error {
	if len(b) < 2 || b[0] != '"' || b[len(b)-1] != '"' {
		return fmt.Errorf("types: date JSON value %s is not a string", b)
	}
	v, err := ParseDate(string(b[1 : len(b)-1]))
	if err != nil {
		return err
	}
	*d = v
	return nil
}

// ParseDate parses a YYYY-MM-DD string.
func ParseDate(s string) (Date, error) {
	var y, m, d int
	if _, err := fmt.Sscanf(s, "%d-%d-%d", &y, &m, &d); err != nil {
		return 0, fmt.Errorf("types: bad date %q: %w", s, err)
	}
	if m < 1 || m > 12 || d < 1 || d > daysInMonth(y, m) {
		return 0, fmt.Errorf("types: date %q out of range", s)
	}
	return MakeDate(y, m, d), nil
}

// MustDate parses a YYYY-MM-DD string, panicking on error. Intended for
// constants in tests and the TPC-H query parameters.
func MustDate(s string) Date {
	d, err := ParseDate(s)
	if err != nil {
		panic(err)
	}
	return d
}
