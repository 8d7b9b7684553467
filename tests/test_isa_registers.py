import pytest

from repro.isa.registers import GP, PR, Reg, RegClass


class TestReg:
    def test_virtual_constructors(self):
        r = GP(3)
        assert r.is_gp and r.virtual and r.cluster == -1
        p = PR(1)
        assert p.is_pr

    def test_physical(self):
        r = GP(5, virtual=False, cluster=1)
        assert not r.virtual and r.cluster == 1
        assert str(r) == "c1.r5"

    def test_virtual_str(self):
        assert str(GP(2)) == "vr2"
        assert str(PR(0)) == "vp0"

    def test_hashable_and_equal(self):
        assert GP(1) == GP(1)
        assert GP(1) != PR(1)
        assert GP(1) != GP(1, virtual=False, cluster=0)
        assert len({GP(1), GP(1), GP(2)}) == 2

    def test_negative_index_rejected(self):
        with pytest.raises(ValueError):
            Reg(RegClass.GP, -1)

    def test_physical_requires_cluster(self):
        with pytest.raises(ValueError):
            Reg(RegClass.GP, 0, virtual=False)

    def test_virtual_must_not_have_cluster(self):
        with pytest.raises(ValueError):
            Reg(RegClass.GP, 0, virtual=True, cluster=0)


def _grid():
    for rclass in RegClass:
        for index in range(301):
            yield Reg(rclass, index)
            for cluster in range(4):
                yield Reg(rclass, index, virtual=False, cluster=cluster)


class TestRegKey:
    def test_equal_exactly_when_fields_equal(self):
        regs = list(_grid())
        fields = {(r.rclass, r.index, r.virtual, r.cluster) for r in regs}
        assert len(fields) == len(regs)
        # Distinct fields never collide: one set entry per register.
        assert len(set(regs)) == len(regs)
        for r in regs:
            twin = Reg(r.rclass, r.index, r.virtual, r.cluster)
            assert twin == r and hash(twin) == hash(r)
            assert not (twin != r)

    def test_non_reg_comparisons(self):
        assert GP(1) != 1
        assert GP(1) != (RegClass.GP, 1, True, -1)
        assert GP(1).__eq__("vr1") is NotImplemented

    def test_pickle_round_trip(self):
        import pickle

        regs = list(_grid())
        back = pickle.loads(pickle.dumps(regs))
        for r, b in zip(regs, back):
            assert b == r and hash(b) == hash(r) and b is not r

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"virtual": False, "cluster": 63},
            {"virtual": False, "cluster": 1000},
            {"virtual": True, "cluster": -2},
        ],
    )
    def test_unpackable_rejected(self, kwargs):
        with pytest.raises(ValueError):
            Reg(RegClass.GP, 0, **kwargs)

    def test_unknown_class_rejected(self):
        with pytest.raises(ValueError):
            Reg("r", 0)  # type: ignore[arg-type]

    def test_independent_of_hash_seed(self):
        import os
        import subprocess
        import sys
        from pathlib import Path

        script = (
            "from repro.isa.registers import GP, PR\n"
            "regs = [GP(0), GP(5), PR(3), GP(300), PR(0),\n"
            "        GP(2, virtual=False, cluster=0), GP(2, virtual=False, cluster=3),\n"
            "        PR(31, virtual=False, cluster=1), GP(63, virtual=False, cluster=2)]\n"
            "print([hash(r) for r in regs])\n"
            "print([str(r) for r in set(regs)])\n"
        )
        src = str(Path(__file__).resolve().parent.parent / "src")
        outputs = []
        for seed in ("0", "1"):
            env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=src)
            proc = subprocess.run(
                [sys.executable, "-c", script],
                env=env, capture_output=True, text=True, timeout=60, check=True,
            )
            outputs.append(proc.stdout)
        assert outputs[0] == outputs[1]
