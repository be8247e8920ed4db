package types

// Date arithmetic on proleptic-Gregorian day counts since 1970-01-01. The
// generator and the TPC-H predicates only need date construction,
// year extraction, and day/month/year addition, so this file implements the
// civil-calendar conversions directly (no time.Time, which would drag in
// time zones and allocations).

// ToDays converts a civil date to a day count since 1970-01-01.
// Algorithm: Howard Hinnant's days_from_civil.
func ToDays(year, month, day int) int32 {
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
	var mp int64
	if month > 2 {
		mp = int64(month) - 3
	} else {
		mp = int64(month) + 9
	}
	doy := (153*mp+2)/5 + int64(day) - 1    // [0, 365]
	doe := yoe*365 + yoe/4 - yoe/100 + doy  // [0, 146096]
	return int32(era*146097 + doe - 719468) // shift epoch to 1970-01-01
}

// FromDays converts a day count since 1970-01-01 back to a civil date.
// Algorithm: Howard Hinnant's civil_from_days.
func FromDays(days int32) (year, month, day int) {
	z := int64(days) + 719468
	var era int64
	if z >= 0 {
		era = z / 146097
	} else {
		era = (z - 146096) / 146097
	}
	doe := z - era*146097                                  // [0, 146096]
	yoe := (doe - doe/1460 + doe/36524 - doe/146096) / 365 // [0, 399]
	y := yoe + era*400
	doy := doe - (365*yoe + yoe/4 - yoe/100) // [0, 365]
	mp := (5*doy + 2) / 153                  // [0, 11]
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

// Year extracts the calendar year from a day count.
func Year(days int32) int {
	y, _, _ := FromDays(days)
	return y
}
