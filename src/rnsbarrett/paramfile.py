"""Reading and rendering of parameter files for the command-line tool.

A parameter file is UTF-8 text with one ``key: value`` pair per line.
Integers are decimal or ``0x`` hex, lists are comma-separated, and
channel indices are 1-based (matching the summaries the tool prints).
``dumps`` writes N in hex only where ``str()`` refuses it, past 4300
decimal digits by default (``errors.int_text``). Blank lines and lines
starting with ``#`` are ignored. Exactly these keys are required:

    moduli: 4, 5, 7, 11
    N: 21
    g_indices: 1, 2
    h_indices: 1, 3
    case: 1

``g_indices`` may have an empty value (g = 1). The flat format keeps the
files diff-friendly so they can serve as golden fixtures.
"""

from .barrett import RangeCase
from .errors import int_text, parse_int
from .rns import make_moduli_set
from .rns_barrett import RnsBarrettContext, make_context

_REQUIRED_KEYS = ("moduli", "N", "g_indices", "h_indices", "case")


def _hex_if_too_long(value: int) -> str:
    """Decimal text of ``value``, or ``0x`` hex where ``str()`` refuses it."""
    text = int_text(value)
    return hex(value) if text.startswith("<") else text


def dumps(ctx: RnsBarrettContext) -> str:
    """Render a context as parameter-file text."""
    lines = [
        "moduli: " + ", ".join(str(m) for m in ctx.mset.moduli),
        f"N: {_hex_if_too_long(ctx.params.modulus)}",
        "g_indices: " + ", ".join(str(i + 1) for i in ctx.g_indices),
        "h_indices: " + ", ".join(str(i + 1) for i in ctx.h_indices),
        f"case: {ctx.params.case.value}",
    ]
    return "\n".join(lines) + "\n"


def _parse_int(token: str, where: str) -> int:
    try:
        return parse_int(token)
    except ValueError as exc:
        raise ValueError(f"{where}: {exc}") from None


def _parse_int_list(value: str, where: str) -> list[int]:
    value = value.strip()
    if not value:
        return []
    return [_parse_int(tok.strip(), where) for tok in value.split(",")]


def loads(text: str) -> RnsBarrettContext:
    """Parse parameter-file text and build the context it describes.

    Malformed text raises ValueError; a well-formed file describing an
    unusable configuration raises the package's named error for it:
    ModulusTooSmall or DuplicateOrNonCoprime for the moduli, and
    ConditionViolation from ``make_context``.
    """
    entries: dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        key, sep, value = line.partition(":")
        if not sep:
            raise ValueError(f"line {lineno}: expected 'key: value', got {raw!r}")
        key = key.strip()
        if key not in _REQUIRED_KEYS:
            raise ValueError(f"line {lineno}: unknown key {key!r}")
        if key in entries:
            raise ValueError(f"line {lineno}: duplicate key {key!r}")
        entries[key] = value.strip()
    missing = [k for k in _REQUIRED_KEYS if k not in entries]
    if missing:
        raise ValueError(f"missing keys: {', '.join(missing)}")

    moduli = _parse_int_list(entries["moduli"], "moduli")
    if not moduli:
        raise ValueError("moduli list is empty")
    modulus = _parse_int(entries["N"], "N")
    case_number = _parse_int(entries["case"], "case")
    try:
        case = RangeCase(case_number)
    except ValueError:
        raise ValueError(f"case must be 1..4, got {case_number}") from None

    n = len(moduli)
    ms = make_moduli_set(moduli)
    # Indices in the file refer to the moduli in file order; the set sorts
    # them ascending, so translate through the modulus values.
    position = {m: i for i, m in enumerate(ms.moduli)}

    def to_sorted_indices(key: str) -> tuple[int, ...]:
        out = []
        for i in _parse_int_list(entries[key], key):
            if not 1 <= i <= n:
                raise ValueError(f"{key}: index {i} out of range 1..{n}")
            out.append(position[moduli[i - 1]])
        return tuple(sorted(out))

    return make_context(ms, modulus, to_sorted_indices("g_indices"),
                        to_sorted_indices("h_indices"), case)


def load(path) -> RnsBarrettContext:
    """Read and parse a parameter file from disk."""
    with open(path, "r", encoding="utf-8") as fh:
        return loads(fh.read())
