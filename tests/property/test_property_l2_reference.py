"""The banked L2 against an independent LRU model.

Both schedulers and the miss-path reference test drive the same
:class:`~repro.mem.cache.SetAssociativeCache`, so comparing them cannot
expose an LRU bug.  Here each (physical bank, set) is a plain
``OrderedDict`` of line -> dirty, least recently used first, indexed
with the banks' stride of 32 lines, and a random mix of demand reads,
victim write-backs, general accesses and power-state transitions must
give the same answers as :class:`~repro.mem.l2.BankedL2` after every
operation and the same counters and contents at the end.
"""

from collections import OrderedDict

from hypothesis import given, settings, strategies as st

from repro.mem.l2 import BankedL2, L2Config
from repro.mot.power_state import FULL_CONNECTION, PC4_MB8, PC16_MB8
from repro.mot.reconfigurator import plan_reconfiguration

CONFIG = L2Config()  # Table I: 32 banks x 64 KB, 8-way, 32 B lines
LINE = 32
N_BANKS = 32
WAYS = 8
N_SETS = CONFIG.bank_capacity_bytes // (LINE * WAYS)
STATES = {s.name: s for s in (FULL_CONNECTION, PC16_MB8, PC4_MB8)}


class ReferenceL2:
    """Per (physical bank, set): an OrderedDict, LRU first."""

    def __init__(self) -> None:
        self.sets = {}
        self.remap = plan_reconfiguration(FULL_CONNECTION).remap
        self.counts = dict.fromkeys(
            ("reads", "writes", "read_hits", "write_hits", "evictions",
             "writebacks"), 0)
        self.bank_accesses = [0] * N_BANKS

    def home(self, address):
        line = address // LINE
        bank = self.remap[line % N_BANKS]
        return bank, line * LINE, (line // N_BANKS) % N_SETS

    def _lines(self, address):
        bank, line, index = self.home(address)
        self.bank_accesses[bank] += 1
        return bank, line, self.sets.setdefault((bank, index), OrderedDict())

    def access(self, address, is_write):
        """Write-allocate access: ``(hit, dirty victim, bank)``."""
        bank, line, lines = self._lines(address)
        kind = "writes" if is_write else "reads"
        self.counts[kind] += 1
        if line in lines:
            lines.move_to_end(line)
            lines[line] = lines[line] or is_write
            self.counts[kind[:-1] + "_hits"] += 1
            return True, None, bank
        victim = None
        if len(lines) == WAYS:
            evicted, dirty = lines.popitem(last=False)
            self.counts["evictions"] += 1
            if dirty:
                victim = evicted
                self.counts["writebacks"] += 1
        lines[line] = is_write
        return False, victim, bank

    def write_no_allocate(self, address):
        bank, line, lines = self._lines(address)
        self.counts["writes"] += 1
        if line not in lines:
            return False, bank
        lines.move_to_end(line)
        lines[line] = True
        self.counts["write_hits"] += 1
        return True, bank

    def transition(self, state):
        """Flush what the new mapping strands; ``(written, invalidated)``."""
        plan = plan_reconfiguration(state)
        written = invalidated = 0
        for (bank, _), lines in self.sets.items():
            for line in list(lines):
                gone = (bank not in state.active_banks
                        or plan.remap[(line // LINE) % N_BANKS] != bank)
                if gone:
                    invalidated += 1
                    written += lines.pop(line)
        self.counts["writebacks"] += written
        self.remap = plan.remap
        return written, invalidated

    def contents(self, dirty_only=False):
        """Per physical bank: its resident (or dirty) lines."""
        out = [set() for _ in range(N_BANKS)]
        for (bank, _), lines in self.sets.items():
            out[bank].update(line for line, dirty in lines.items()
                             if dirty or not dirty_only)
        return out


def address_of(bank, index, tag):
    """A byte address (not line-aligned) in logical bank ``bank`` and
    set ``index``."""
    return ((tag * N_SETS + index) * N_BANKS + bank) * LINE + tag % LINE


#: Operation kinds, weighted: mostly reads and accesses, some victim
#: write-backs, and a rare power-state transition (each one flushes the
#: lines it strands).
KINDS = ["read"] * 6 + ["absorb"] * 3 + ["access"] * 6 + ["state"]
BANKS = (13, 21)  # PC4-MB8 and PC16-MB8 fold both onto bank 13
SETS = (0, N_SETS - 1)
TAGS = 2 * WAYS  # twice the ways: sets fill, evict and write back


def decode(code):
    """One operation from one integer (so the shrinker works on a flat
    list of ints): ``(kind, address, is_write, state name)``."""
    code, kind = divmod(code, len(KINDS))
    code, is_write = divmod(code, 2)
    code, bank = divmod(code, len(BANKS))
    code, index = divmod(code, len(SETS))
    code, tag = divmod(code, TAGS)
    state = sorted(STATES)[code % len(STATES)]
    return KINDS[kind], address_of(BANKS[bank], SETS[index], tag), is_write, state


# Long enough that sets fill and lines come back after an eviction.
operations = st.lists(
    st.integers(0, len(KINDS) * 2 * len(BANKS) * len(SETS) * TAGS * len(STATES) - 1),
    min_size=40,
    max_size=160,
)


@given(st.sampled_from(sorted(STATES)), operations)
@settings(max_examples=60, deadline=None)
def test_banked_l2_matches_an_ordered_dict_lru(start, ops):
    l2 = BankedL2(CONFIG)
    ref = ReferenceL2()
    assert l2.prepare_power_state(
        plan_reconfiguration(STATES[start])
    ) == ref.transition(STATES[start])
    for kind, address, is_write, state in map(decode, ops):
        if kind == "read":
            (hit, victim), bank = l2.demand_read(address)
            assert (hit, victim, bank) == ref.access(address, False)
        elif kind == "absorb":
            assert l2.absorb_writeback(address) == ref.write_no_allocate(address)
        elif kind == "access":
            out = l2.access(address, is_write)
            assert (out.hit, out.writeback, out.physical_bank) == ref.access(
                address, is_write
            )
        else:
            assert l2.prepare_power_state(
                plan_reconfiguration(STATES[state])
            ) == ref.transition(STATES[state])

    stats = l2.total_stats()
    assert {name: getattr(stats, name) for name in ref.counts} == ref.counts
    assert l2.bank_accesses == ref.bank_accesses
    assert [set(bank.dirty_lines()) for bank in l2.banks] == ref.contents(True)
    assert [
        {line.address for line in bank.lines()} for bank in l2.banks
    ] == ref.contents()
    assert l2.resident_lines() == sum(map(len, ref.contents()))
