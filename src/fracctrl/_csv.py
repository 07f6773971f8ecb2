"""The layout of every CSV table and JSON report the package writes.

A table is a header line, then integers as "%d" writes them, floats as
format(x, ".17g") (round-trips every float64), strings as they are, and an
empty cell where there is no value.

The text is made CHUNK_ROWS rows at a time.  An integer column whose values
span no more than the chunk's rows, as a grid axis does, is formatted once
per distinct value; floats are formatted in numpy, with no Python call per
value.  Each cell of a chunk fills a fixed-width slot of bytes, and the
places a cell does not use hold the filler byte 0, which the chunk's text
leaves out.  A float's 17 significant digits are |x| * 10**k rounded half to
even, with |x| * 10**k taken from one double-double product (Dekker's exact
two-product, no fused multiply-add) that errs by less than 2**-47 of a unit
in the last digit, and by nothing where 10**k is itself a float.  Where it
is not, a value whose product lies within TIE_MARGIN of a rounding tie, so
that the error could decide the last digit, is formatted by
format(x, ".17g") itself, as is a NaN or an infinity.  The digits are then
laid out as "%.17g" lays them out: fixed for decimal exponents -4 to 16,
scientific otherwise, without trailing zeros.

Every file is written under a hidden temporary name in its directory and
renamed over its final name only once complete, so a failed write leaves
neither a partial file nor the temporary one."""

import functools
import json
import math
import os
from contextlib import contextmanager

import numpy as np

# Rows formatted per write: a chunk of 16 Ki rows holds a few MB of slots.
CHUNK_ROWS = 16 * 1024
# Distance from a rounding tie, in units of the 17th digit, inside which a
# float is formatted by format(x, ".17g"): 2**23 times the product's error.
TIE_MARGIN = 2.0**-24

_SPLIT = 134217729.0  # 2**27 + 1 splits a float64 into two 26-bit halves
_E_MIN, _E_MAX = -1073, 1024  # binary exponents of frexp over finite nonzero floats
_DEC_MIN = -330  # below the decimal exponent of the least subnormal, -324
# A float's slot: sign, the "0.000" of exponents -4 to -1, integer digits
# from byte 6, the point, fraction digits from byte 7 + their index, and
# the exponent's "e-308" from byte 24; its words are made 32 bytes wide.
_FLOAT_SLOT = 29


def write_csv(path, header: str, tables) -> None:
    """Write ``header``, then the rows of each (shape, columns) table in turn.

    A table has one row per index of ``shape``, in C order.  Each column is
    an int, naming the grid axis whose index the row writes; a str, the cell
    of every row; or an integer or float array read at the row's grid index.
    An array that ends before the grid along the last axis leaves an empty
    cell past its end (q and Z have no value at the terminal step).
    ``tables`` is read one table at a time, so a generator holds one table's
    arrays at once.
    """
    with _replacing(path) as fh:
        fh.write(header.encode() + b"\n")
        for shape, columns in tables:
            n_rows = math.prod(shape)
            for start in range(0, n_rows, CHUNK_ROWS):
                rows = np.arange(start, min(start + CHUNK_ROWS, n_rows))
                index = np.unravel_index(rows, shape)
                fh.write(_text(rows.size, [_cells(column, index) for column in columns]))


def write_json(path, payload: dict) -> None:
    """Write ``payload`` as JSON: two-space indent, sorted keys, a final newline."""
    with _replacing(path) as fh:
        fh.write((json.dumps(payload, indent=2, sort_keys=True) + "\n").encode())


@contextmanager
def _replacing(path):
    """Yield a new binary file that replaces ``path`` when the block completes.

    The file is created under an unused hidden name next to ``path``, with
    the permissions ``open(path, "w")`` would give.  If the block raises, the
    file is removed and ``path`` is left as it was.
    """
    directory, name = os.path.split(os.path.abspath(path))
    while True:
        temp = os.path.join(directory, f".{name}.{os.urandom(4).hex()}.part")
        try:
            fh = open(temp, "xb")
            break
        except FileExistsError:
            continue
    try:
        with fh:
            yield fh
        os.replace(temp, path)
    except BaseException:
        os.unlink(temp)
        raise


def _text(n: int, cells) -> bytes:
    """The text of ``n`` rows: their cells' slots side by side, separated by
    commas and ended by a newline, with the filler left out."""
    widths = [cell.shape[1] for cell in cells]
    out = np.empty((n, sum(widths) + len(cells)), np.uint8)
    end = 0
    for cell, width in zip(cells, widths):
        out[:, end : end + width] = cell
        out[:, end + width] = ord(",")
        end += width + 1
    out[:, -1] = ord("\n")
    return out.tobytes().translate(None, b"\0")


def _cells(column, index):
    """The slots of one column over one chunk of rows, an (n, width) uint8
    array (a constant's has one row)."""
    if isinstance(column, int):
        return _int_slots(index[column])
    if isinstance(column, str):
        return np.frombuffer(column.encode(), np.uint8)[None]
    slots = _SLOTS[column.dtype.kind]
    present = index[-1] < column.shape[-1]
    if present.all():
        return slots(column[index])
    values = slots(column[tuple(axis[present] for axis in index)])
    cells = np.zeros((present.size, values.shape[1]), np.uint8)
    cells[present] = values
    return cells


def _int_slots(values):
    """Each value's "%d" text in a slot as wide as the widest; formatted once
    per distinct value unless the values span more than their count."""
    values = values.astype(np.int64)  # so that values - low cannot wrap
    low, high = (int(values.min()), int(values.max())) if values.size else (0, 0)
    if high - low < values.size:
        text = np.array([b"%d" % v for v in range(low, high + 1)])
        return text.view(np.uint8).reshape(text.size, -1).take(values - low, axis=0)
    text = np.array([b"%d" % v for v in values.tolist()], "S")
    return text.view(np.uint8).reshape(text.size, -1)


def _float_slots(values):
    """Each value's text as "%.17g" writes it, in a _FLOAT_SLOT-byte slot."""
    t = _tables()
    x = values.astype(np.float64, copy=False)
    magnitude = np.abs(x)
    finite = np.isfinite(magnitude)
    if not finite.all():
        magnitude = np.where(finite, magnitude, 0.0)
    # |x| = m * 2**e.  The scale's entry for e and for the decimal exponent
    # E = floor(log10|x|) holds C = 2**e * 10**(16 - E), so that m * C, the
    # digits as an integer plus a fraction, lies in [1e16, 1e17).
    m, e = np.frexp(magnitude)
    entry = (e.astype(np.intp) - _E_MIN) * 2
    entry += magnitude >= t.next_power_of_ten.take(entry)
    c_hi, c_hi_hi, c_hi_lo, c_lo = (column.take(entry) for column in t.scale)
    split = m * _SPLIT
    m_hi = split - (split - m)
    m_lo = m - m_hi
    product = m * c_hi  # an integer, being at least 2**53
    rest = ((m_hi * c_hi_hi - product) + m_hi * c_hi_lo + m_lo * c_hi_hi) + m_lo * c_hi_lo
    rest += m * c_lo
    whole = np.floor(rest)
    rest -= whole
    digits = product.astype(np.int64)
    digits += whole.astype(np.int64)
    # Where C is a float (E from -6 to 16) the product is exact, and so is a
    # tie, which rounds to the even neighbour.
    exact = c_lo == 0.0
    near_tie = (np.abs(rest - 0.5) < TIE_MARGIN) & ~exact
    digits += (rest > 0.5) | ((rest == 0.5) & (digits & 1 == 1))
    exponent = t.decimal_exponent.take(entry)
    carry = digits == 10**17
    digits[carry] = 10**16
    exponent += carry
    exponent[magnitude == 0.0] = 0
    # The 17 digits in groups of 1, 4, 4, 4 and 4.
    high = digits // 10**8
    digits -= high * 10**8
    first = high // 10**8
    high -= first * 10**8
    groups = [first]
    for part in (high, digits):
        upper = part // 10**4
        groups += [upper, part - upper * 10**4]
    # The digits' text as the slot's first three words: digit i at byte 7 + i.
    low_half, high_half = t.digit_words
    text = [high_half.take(groups[0])]
    text += [low_half.take(groups[g]) | high_half.take(groups[g + 1]) for g in (1, 3)]
    # Digits up to the last nonzero one: 17 unless the last group is 0.
    n_digits = 17 - t.trailing_zeros4.take(groups[-1])
    short = np.flatnonzero(groups[-1] == 0)
    if short.size:
        n_digits[short] = 1
        for group, end in zip(groups[1:-1], (5, 9, 13)):
            part = group[short]
            counted = end - t.trailing_zeros4.take(part)
            n_digits[short] = np.where(part != 0, counted, n_digits[short])
    slots = _layout(text, exponent - _DEC_MIN, n_digits, np.signbit(x))
    for i in np.flatnonzero(~finite | near_tie).tolist():
        cell = format(float(x[i]), ".17g").encode()
        slots[i] = 0
        slots[i, : len(cell)] = np.frombuffer(cell, np.uint8)
    return slots


def _layout(fraction_digits, exponent, n_digits, negative):
    """The (n, _FLOAT_SLOT) uint8 slots from the first three words of the
    digits' text (digit i at byte 7 + i), the decimal exponent (offset by
    -_DEC_MIN), the count of digits up to the last nonzero one and the sign."""
    t = _tables()
    pattern = t.form.take(exponent) * 18 + n_digits
    words = []
    for w, fraction in enumerate(fraction_digits):
        integer = fraction >> np.uint64(8)  # digit i at byte 6 + i
        if w < 2:
            integer |= fraction_digits[w + 1] << np.uint64(56)
        integer &= t.integer_mask[w].take(pattern)
        fraction = fraction & t.fraction_mask[w].take(pattern)
        fraction |= integer
        fraction |= t.marks[w].take(pattern)
        words.append(fraction)
    words[0] |= negative * np.uint64(ord("-"))
    words.append(t.exponent_text.take(exponent))
    return np.stack(words, axis=1).view(np.uint8)[:, :_FLOAT_SLOT]


_SLOTS = {"i": _int_slots, "f": _float_slots}


class _Tables:
    """Lookup tables for the formatters, built once at first use (about 15 ms)."""

    def __init__(self):
        text4 = [b"%04d" % i for i in range(10000)]
        # The same text in the low and in the high half of a word.
        low_half = np.frombuffer(b"".join(text4), np.uint32).astype(np.uint64)
        self.digit_words = (low_half, low_half << np.uint64(32))
        self.trailing_zeros4 = np.array([4 - len(s.rstrip(b"0")) for s in text4], np.intp)
        # By decimal exponent D: 10**(16 - D) as a double-double scaled by
        # 2**-shift into (0.5, 2), and the least float >= 10**D.
        ten_hi, ten_lo, shift, least = [], [], [], []
        for d in range(_DEC_MIN, 309):
            num, den = _ratio(10, 16 - d)
            shift.append(num.bit_length() - den.bit_length())
            hi, lo = _double_double(num << max(-shift[-1], 0), den << max(shift[-1], 0))
            ten_hi.append(hi)
            ten_lo.append(lo)
            num, den = _ratio(10, d)
            nearest = num / den  # correctly rounded, so at most one step low
            a, b = nearest.as_integer_ratio()
            least.append(nearest if a * den >= num * b else math.nextafter(nearest, math.inf))
        # By entry 2 * (e - _E_MIN) + (|x| >= 10**(E0 + 1)), for the binary
        # exponent e and E0 = floor(log10(2**(e - 1))): the decimal exponent E
        # of |x|, and C = 2**e * 10**(16 - E) as a double-double with its high
        # part split.  At the even entries, the least float >= 10**(E0 + 1).
        e = np.arange(_E_MIN, _E_MAX + 1)
        e0 = np.floor((e - 1) * math.log10(2)).astype(np.intp)
        self.decimal_exponent = np.stack([e0, e0 + 1], axis=1).reshape(-1)
        self.next_power_of_ten = np.full(self.decimal_exponent.size, np.inf)
        self.next_power_of_ten[::2] = np.take(least, e0 + 1 - _DEC_MIN)
        d = self.decimal_exponent - _DEC_MIN
        power = (np.repeat(e, 2) + np.take(shift, d)).astype(np.int32)  # ldexp's portable type
        hi, lo = np.ldexp(np.take(ten_hi, d), power), np.ldexp(np.take(ten_lo, d), power)
        split = hi * _SPLIT
        hi_hi = split - (split - hi)
        self.scale = (hi, hi_hi, hi - hi_hi, lo)
        # By decimal exponent E: the form (E + 4 for the fixed exponents -4
        # to 16, 21 for scientific) and the scientific exponent's text.
        exponents = np.arange(_DEC_MIN, 311)
        self.form = np.where((exponents >= -4) & (exponents <= 16), exponents + 4, 21)
        self.exponent_text = np.array(
            [0 if -4 <= d <= 16 else int.from_bytes(b"e%+03d" % d, "little") for d in exponents],
            np.uint64,
        )
        # By form * 18 + digits: which bytes of a slot take integer digits,
        # which take fraction digits, and the fixed characters ("-0.000", ".").
        masks = np.zeros((3, 22 * 18, 24), np.uint8)
        for form in range(22):
            point = 1 if form == 21 else max(form - 3, 0)  # integer digits
            for n in range(1, 18):
                integer, fraction, marks = masks[:, form * 18 + n]
                integer[6 : 6 + point] = 0xFF
                fraction[7 + point : 7 + n] = 0xFF
                if form < 4:
                    marks[1 : 6 - form] = np.frombuffer(b"0.000"[: 5 - form], np.uint8)
                elif n > point:
                    marks[6 + point] = ord(".")
        # Each as three tables, one per word of the slot's first 24 bytes.
        words = masks.view(np.uint64).transpose(0, 2, 1).copy()
        self.integer_mask, self.fraction_mask, self.marks = words


def _ratio(base, power):
    """base**power as (numerator, denominator)."""
    return (base**power, 1) if power >= 0 else (1, base**-power)


def _double_double(num, den):
    """(hi, lo), the float nearest num / den and the float nearest the rest."""
    hi = num / den  # correctly rounded
    a, b = hi.as_integer_ratio()
    return hi, (num * b - a * den) / (den * b)


@functools.cache
def _tables():
    return _Tables()
