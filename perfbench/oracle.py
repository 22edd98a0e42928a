"""The independent answer oracle.

Every expected answer is computed here from the raw generated baskets,
without the program's miners, indexes or caches:

* :class:`WindowCounter` counts itemsets with its own item bitmaps and
  mines every rule of a window with its own depth-first search, with
  exact rational thresholds;
* :func:`dctar_keys` re-mines a window from scratch with the program's
  DCTAR baseline (apriori), a different kernel from the served vertical
  one, as a cross-check of the counter itself.

The ``check_*`` functions compare one decoded answer with the oracle
and return a list of mismatches (empty when the answer is correct).
"""

from __future__ import annotations

import bisect
import random
from fractions import Fraction
from typing import Dict, FrozenSet, Iterable, List, Mapping, Optional, Sequence, Set, Tuple

Key = Tuple[Tuple[int, ...], Tuple[int, ...]]  # (antecedent, consequent)
Counts = Tuple[int, int, int]  # (rule count, antecedent count, consequent count)
Exact = Tuple[Fraction, Fraction]  # (minsupp, minconf)


def exact(setting: Sequence[float]) -> Exact:
    """The rational a decimal slider setting stands for."""
    return Fraction(repr(setting[0])), Fraction(repr(setting[1]))


class WindowCounter:
    """Support counting and rule mining over one window's baskets."""

    def __init__(self, baskets: Sequence[Sequence[int]]) -> None:
        self.size = len(baskets)
        masks: Dict[int, int] = {}
        for position, basket in enumerate(baskets):
            bit = 1 << position
            for item in basket:
                masks[item] = masks.get(item, 0) | bit
        self._masks = masks
        self._everything = (1 << self.size) - 1
        self._archive: Optional[Dict[Key, Counts]] = None
        self._by_count: List[Tuple[int, int, Key]] = []
        self._filtered: Dict[Exact, FrozenSet[Key]] = {}

    def count(self, items: Iterable[int]) -> int:
        mask = self._everything
        for item in items:
            mask &= self._masks.get(item, 0)
        return mask.bit_count()

    def rules(self, floor: Exact) -> Dict[Key, Counts]:
        """Every rule with support and confidence at least *floor*."""
        supp, conf = floor
        min_count = max(1, -(-supp.numerator * self.size // supp.denominator))
        frequent: Dict[Tuple[int, ...], int] = {}
        singles = sorted(
            (item, mask)
            for item, mask in self._masks.items()
            if mask.bit_count() >= min_count
        )

        def extend(prefix: Tuple[int, ...], mask: int, tail: List[Tuple[int, int]]) -> None:
            for index, (item, item_mask) in enumerate(tail):
                joined = mask & item_mask
                count = joined.bit_count()
                if count >= min_count:
                    itemset = prefix + (item,)
                    frequent[itemset] = count
                    extend(itemset, joined, tail[index + 1 :])

        extend((), self._everything, singles)
        found: Dict[Key, Counts] = {}
        for itemset, count in frequent.items():
            size = len(itemset)
            if size < 2:
                continue
            for pick in range(1, (1 << size) - 1):
                antecedent = tuple(itemset[i] for i in range(size) if pick >> i & 1)
                consequent = tuple(itemset[i] for i in range(size) if not pick >> i & 1)
                antecedent_count = frequent[antecedent]
                if count * conf.denominator >= conf.numerator * antecedent_count:
                    found[(antecedent, consequent)] = (
                        count, antecedent_count, frequent[consequent]
                    )
        return found

    def archive(self, generation: Exact) -> Dict[Key, Counts]:
        """The rules a knowledge base built at *generation* archives."""
        if self._archive is None:
            self._archive = self.rules(generation)
            self._by_count = sorted(
                ((-counts[0], counts[1], key) for key, counts in self._archive.items()),
            )
        return self._archive

    def ruleset(self, generation: Exact, setting: Exact) -> FrozenSet[Key]:
        """Rules valid at *setting* (which must lie above *generation*)."""
        cached = self._filtered.get(setting)
        if cached is None:
            self.archive(generation)
            supp, conf = setting
            # Rules by falling count: stop at the first one below minsupp.
            stop = bisect.bisect_left(
                self._by_count, (-((supp.numerator * self.size - 1) // supp.denominator),)
            )
            cached = frozenset(
                key
                for negative, antecedent_count, key in self._by_count[:stop]
                if -negative * conf.denominator >= conf.numerator * antecedent_count
            )
            self._filtered[setting] = cached
        return cached


def dctar_keys(baskets: Sequence[Sequence[int]], generation: Sequence[float]) -> Set[Key]:
    """A from-scratch apriori re-mine with the program's DCTAR baseline."""
    from repro.baselines.dctar import Dctar
    from repro.core.regions import ParameterSetting
    from repro.data.periods import TimePeriod
    from repro.data.transactions import Transaction
    from repro.data.windows import WindowedDatabase

    window = [Transaction.create(list(basket), time) for time, basket in enumerate(baskets)]
    database = WindowedDatabase(
        [window], [TimePeriod(0, len(window) - 1)], window_width=len(window), by="count"
    )
    answer = Dctar(database).ruleset(ParameterSetting(*generation), 0)
    return {(tuple(a), tuple(c)) for a, c in answer}


class Oracle:
    """Expected answers over a list of windows."""

    def __init__(self, generation: Sequence[float], windows: Iterable[Sequence[Sequence[int]]]) -> None:
        self.generation = exact(generation)
        self.windows = [WindowCounter(baskets) for baskets in windows]
        self.ids: Dict[int, Key] = {}

    def ruleset(self, window: int, setting: Exact) -> FrozenSet[Key]:
        return self.windows[window].ruleset(self.generation, setting)

    # ------------------------------------------------------------------
    def learn_ids(self, trajectories: Sequence[Mapping[str, object]]) -> List[str]:
        """Record rule id -> rule from a Q1 answer; report contradictions."""
        errors = []
        for row in trajectories:
            key = (tuple(row["antecedent"]), tuple(row["consequent"]))  # type: ignore[arg-type]
            known = self.ids.setdefault(row["rule_id"], key)  # type: ignore[arg-type]
            if known != key:
                errors.append(f"rule id {row['rule_id']} names {known} and {key}")
        return errors

    def _keys(self, ids: Iterable[int], errors: List[str]) -> Set[Key]:
        keys = set()
        for rule_id in ids:
            key = self.ids.get(rule_id)
            if key is None:
                errors.append(f"unknown rule id {rule_id}")
            else:
                keys.add(key)
        return keys

    # ------------------------------------------------------------------
    def check_archive(self, window: int, answer: Mapping[str, object]) -> List[str]:
        """A Q1 at the generation thresholds lists the window's archive."""
        served = {
            (tuple(row["antecedent"]), tuple(row["consequent"]))  # type: ignore[index]
            for row in answer["trajectories"]  # type: ignore[union-attr]
        }
        expected = self.windows[window].archive(self.generation)
        return _diff(f"archive of window {window}", served, set(expected))

    def check_q1(
        self,
        answer: Mapping[str, object],
        setting: Exact,
        anchor: int,
        windows: Sequence[int],
    ) -> List[str]:
        rows = answer["trajectories"]
        errors = self.learn_ids(rows)  # type: ignore[arg-type]
        served = set()
        for row in rows:  # type: ignore[union-attr]
            key = (tuple(row["antecedent"]), tuple(row["consequent"]))
            served.add(key)
            measures = row["measures"]
            if sorted(map(int, measures)) != sorted(windows):
                errors.append(f"Q1 {key}: windows {sorted(measures)} != {list(windows)}")
                continue
            for window in windows:
                errors.extend(self._check_measure(key, window, measures[str(window)]))
        errors.extend(_diff(f"Q1 ruleset in window {anchor}", served, self.ruleset(anchor, setting)))
        return errors

    def _check_measure(
        self, key: Key, window: int, measure: Optional[Mapping[str, object]]
    ) -> List[str]:
        counter = self.windows[window]
        archived = counter.archive(self.generation).get(key)
        if measure is None:
            if archived is not None:
                return [f"Q1 {key}: archived in window {window} but reported absent"]
            return []
        full = counter.count(key[0] + key[1])
        expected = (full, counter.count(key[0]), counter.count(key[1]))
        served = (measure["rule_count"], measure["antecedent_count"], measure["consequent_count"])
        errors = []
        if archived is None:
            errors.append(f"Q1 {key}: reported in window {window} but not archived there")
        if served != expected or measure["window_size"] != counter.size:
            errors.append(f"Q1 {key} window {window}: counts {served} != recount {expected}")
        elif (
            measure["support"] != full / counter.size
            or measure["confidence"] != full / expected[1]
        ):
            errors.append(f"Q1 {key} window {window}: support/confidence off the counts")
        return errors

    def check_q2(
        self, answer: Mapping[str, object], first: Exact, second: Exact
    ) -> List[str]:
        errors: List[str] = []
        per_window = answer["per_window"]
        if [row["window"] for row in per_window] != list(range(len(self.windows))):  # type: ignore[union-attr]
            return ["Q2: per-window rows do not cover every window"]
        union_first: Set[int] = set()
        union_second: Set[int] = set()
        for row in per_window:  # type: ignore[union-attr]
            window = row["window"]
            a, b = self.ruleset(window, first), self.ruleset(window, second)
            errors += _diff(f"Q2 only_first w{window}", self._keys(row["only_first"], errors), a - b)
            errors += _diff(f"Q2 only_second w{window}", self._keys(row["only_second"], errors), b - a)
            errors += _diff(f"Q2 common w{window}", self._keys(row["common"], errors), a & b)
            union_first.update(row["only_first"])
            union_second.update(row["only_second"])
        if set(answer["only_first"]) != union_first or set(answer["only_second"]) != union_second:  # type: ignore[arg-type]
            errors.append("Q2: single-match totals are not the per-window union")
        return errors

    def check_q5(
        self, answer: Mapping[str, object], setting: Exact, item: int
    ) -> List[str]:
        errors: List[str] = []
        per_window = answer["per_window"]
        if sorted(map(int, per_window)) != list(range(len(self.windows))):  # type: ignore[arg-type]
            return ["Q5: per-window rows do not cover every window"]
        for window in range(len(self.windows)):
            expected = {
                key for key in self.ruleset(window, setting) if item in key[0] or item in key[1]
            }
            served = self._keys(per_window[str(window)], errors)  # type: ignore[index]
            errors += _diff(f"Q5 item {item} w{window}", served, expected)
        return errors

    def check_q3(
        self,
        answer: Mapping[str, object],
        setting: Exact,
        window: int,
        rng: random.Random,
        probes: int = 3,
    ) -> List[str]:
        if answer["window"] != window:
            return [f"Q3: window {answer['window']} != {window}"]
        region = answer["region"]
        expected = self.ruleset(window, setting)
        errors = []
        box = _box(region)  # type: ignore[arg-type]
        if not _inside(box, setting):
            errors.append(f"Q3: setting {setting} outside its region {box}")
        if region["ruleset_size"] != len(expected):  # type: ignore[index]
            errors.append(f"Q3: region size {region['ruleset_size']} != {len(expected)}")  # type: ignore[index]
        if region["empty"] and expected:  # type: ignore[index]
            errors.append("Q3: an empty region, but the setting has rules")
        (s_lo, s_hi), (c_lo, c_hi) = box
        for _ in range(probes):
            probe = (
                s_lo + (s_hi - s_lo) * Fraction(rng.randint(1, 1000), 1000),
                c_lo + (c_hi - c_lo) * Fraction(rng.randint(1, 1000), 1000),
            )
            if self.ruleset(window, probe) != expected:
                errors.append(f"Q3: probe {probe} inside the region has another ruleset")
        for direction, neighbor in answer["neighbors"].items():  # type: ignore[union-attr]
            (_, n_s), (_, n_c) = _box(neighbor)
            if neighbor["cut"] is not None and neighbor["ruleset_size"] != len(
                self.ruleset(window, (n_s, n_c))
            ):
                errors.append(f"Q3: {direction} neighbor size disagrees with its cut")
        return errors


def _box(region: Mapping[str, object]) -> Tuple[Tuple[Fraction, Fraction], Tuple[Fraction, Fraction]]:
    """The half-open box ``(floor, cut]`` per axis; an empty region ends at 1."""
    cut = region["cut"]
    s_hi = Fraction(cut["support_exact"]) if cut else Fraction(1)  # type: ignore[index]
    c_hi = Fraction(cut["confidence_exact"]) if cut else Fraction(1)  # type: ignore[index]
    return (
        (Fraction(region["support_floor_exact"]), s_hi),  # type: ignore[arg-type]
        (Fraction(region["confidence_floor_exact"]), c_hi),  # type: ignore[arg-type]
    )


def _inside(box: Tuple[Tuple[Fraction, Fraction], Tuple[Fraction, Fraction]], setting: Exact) -> bool:
    (s_lo, s_hi), (c_lo, c_hi) = box
    return s_lo < setting[0] <= s_hi and c_lo < setting[1] <= c_hi


def _diff(what: str, served: Set[Key], expected: Iterable[Key]) -> List[str]:
    expected = set(expected)
    if served == expected:
        return []
    missing, extra = expected - served, served - expected
    return [f"{what}: {len(missing)} missing (e.g. {sorted(missing)[:2]}), "
            f"{len(extra)} unexpected (e.g. {sorted(extra)[:2]})"]
