"""Expected answers for every workload, independent of the package.

Nothing here imports `latticegap`.  The closed form is evaluated locally,
the k = 3 exception and the canonical witnesses are literal values, and
the structured report is parsed by its own few lines of code.
"""

from __future__ import annotations

from fractions import Fraction

FORMAT_HEADER = ("format", "latticegap/1")

# The scan at k = 3 finds 1/299, not the closed form's 1/286.
EXCEPTION_K = 3
EXCEPTION_EPS_SQUARED = Fraction(1, 299)

# The single canonical witness of the full scans at k = 3 and k = 4.
WITNESSES = {
    3: "0,0,0 2,3,3 | 0,1,2 3,2,0",
    4: "0,0,0 3,4,4 | 0,3,4 4,2,1",
}

DOMINATION_CANDIDATES = 231
SEARCH_WINNERS = 8
CERTIFY_SELECTED = "prop1 prop2 prop31"

# From this size on the reduced scan needs more pairs than the CLI's
# default budget, so a refusal is a correct outcome.
REFUSABLE_FROM_K = 5

EXIT_OK = 0
EXIT_BUDGET = 3

COMPLETE = "complete"
REFUSED = "refused"


class WrongAnswer(Exception):
    """A run's exit status or report disagrees with the oracle."""


def closed_form(k: int) -> Fraction:
    """1/(2(2k^2-4k+5)(2k^2-2k+1)), the squared gap of the extremal pair."""
    return Fraction(1, 2 * (2 * k * k - 4 * k + 5) * (2 * k * k - 2 * k + 1))


def expected_eps_squared(k: int) -> Fraction:
    return EXCEPTION_EPS_SQUARED if k == EXCEPTION_K else closed_form(k)


def parse_report(text: str) -> dict:
    """The `key: value` lines of a structured report, header checked."""
    fields = {}
    for line in text.splitlines():
        key, sep, value = line.partition(": ")
        if not sep:
            raise WrongAnswer(f"malformed report line {line!r}")
        if key in fields:
            raise WrongAnswer(f"duplicate report key {key!r}")
        fields[key] = value
    if next(iter(fields.items()), None) != FORMAT_HEADER:
        raise WrongAnswer("missing or unsupported format header")
    return fields


def _expect(fields: dict, key: str, value) -> None:
    got = fields.get(key)
    if got != str(value):
        raise WrongAnswer(f"{key}: expected {value!r}, got {got!r}")


def _int_field(fields: dict, key: str) -> int:
    try:
        return int(fields[key])
    except (KeyError, ValueError):
        raise WrongAnswer(f"{key}: expected an integer, got {fields.get(key)!r}")


def _check_scan(k: int, refusable: bool, status: int, text: str) -> str:
    if status == EXIT_BUDGET and refusable:
        fields = parse_report(text)
        _expect(fields, "status", "incomplete")
        _expect(fields, "reason", "budget exceeded")
        required = _int_field(fields, "required_pairs")
        budget = _int_field(fields, "budget")
        if required <= budget:
            raise WrongAnswer(f"refused {required} pairs within budget {budget}")
        return REFUSED
    if status != EXIT_OK:
        raise WrongAnswer(f"unexpected exit status {status}")
    fields = parse_report(text)
    _expect(fields, "status", "complete")
    _expect(fields, "d", 3)
    _expect(fields, "k", k)
    eps = expected_eps_squared(k)
    _expect(fields, "eps_squared", f"{eps.numerator}/{eps.denominator}")
    if k in WITNESSES:
        _expect(fields, "witnesses", 1)
        _expect(fields, "witness.0", WITNESSES[k])
    elif _int_field(fields, "witnesses") < 1:
        raise WrongAnswer("a complete scan must report a witness")
    return COMPLETE


def certificate_field(fields: dict, selector: str, key: str):
    """`certificate.<i>.<key>` of the certificate chosen by `selector`."""
    for i in range(_int_field(fields, "certificates")):
        if fields.get(f"certificate.{i}.selector") == selector:
            return fields.get(f"certificate.{i}.{key}")
    return None


def _check_certify(status: int, text: str) -> str:
    if status != EXIT_OK:
        raise WrongAnswer(f"unexpected exit status {status}")
    fields = parse_report(text)
    _expect(fields, "status", "pass")
    _expect(fields, "selected", CERTIFY_SELECTED)
    for selector in CERTIFY_SELECTED.split():
        verdict = certificate_field(fields, selector, "verdict")
        if verdict != "pass":
            raise WrongAnswer(f"{selector}: verdict {verdict!r}")
    checks = (("prop1", "data.candidates", DOMINATION_CANDIDATES),
              ("prop2", "data.winner_count", SEARCH_WINNERS))
    for selector, key, value in checks:
        got = certificate_field(fields, selector, key)
        if got != str(value):
            raise WrongAnswer(f"{selector} {key}: expected {value}, got {got!r}")
    return COMPLETE


def check(workload, status: int, text: str) -> str:
    """COMPLETE or REFUSED for a correct run; WrongAnswer otherwise."""
    if workload.k is None:
        return _check_certify(status, text)
    return _check_scan(workload.k, workload.k >= REFUSABLE_FROM_K, status, text)
