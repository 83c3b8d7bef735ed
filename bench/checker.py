"""Answer checker: every CLI answer is certified or cross-checked, untimed.

Rules, per call:

* solve / oracle SOME: the partition written by `--out` must pass
  `is_nash_stable`, and `is_connected_partition` in connected mode.
* solve NONE with n <= 12: the library oracle must agree.
* NONE on a non-negative-weight instance (either mode), or on a
  symmetric-weight instance in plain mode, is wrong: those games always
  have a stable partition.
* plain NONE next to a certified SOME of the same instance in another
  mode (a connected stable partition, or a dynamics fixpoint, is also a
  plain stable partition) is wrong; so is an oracle NONE where the DP
  certified SOME, and the reverse.
* any other NONE is compared with the answers recorded for the default
  seed; a held-out seed skips that comparison and says so.
* verify: the exit code must match the checker's own verdict.
* gen: the witness must verify (plain, or connected for bin packing).
* every call: the exit code must match the `c answer` line; exit 3 or an
  exception is a failure.
"""

from __future__ import annotations

EXIT = {"SOME": 0, "NONE": 1, "UNKNOWN": 2, "STABLE": 0, "UNSTABLE": 1}
ORACLE_LIMIT = 12  # NONE answers up to this n are checked by brute force


class Checker:
    def __init__(self, ashg, recorded: dict | None):
        self.ashg = ashg
        self.recorded = recorded  # None on a held-out seed
        self.held_out_skips = 0
        self._instances: dict[str, object] = {}
        self._stable: dict[tuple, bool] = {}
        self._oracle: dict[tuple, bool] = {}

    # -- helpers ------------------------------------------------------------

    def instance(self, inst):
        game = self._instances.get(inst.name)
        if game is None:
            game = self._instances[inst.name] = self.ashg.parse_instance(inst.text())
        return game

    def stable(self, game_key, game, part_text: str, connected: bool) -> bool:
        """True when the partition text is a (connected) Nash stable partition.

        Raises ValueError when the text is not a partition of the game.
        """
        key = (game_key, connected, part_text)
        verdict = self._stable.get(key)
        if verdict is None:
            partition = self.ashg.parse_partition(part_text)
            if partition.n != game.n:
                raise ValueError(f"partition has {partition.n} vertices, game has {game.n}")
            verdict = self.ashg.is_nash_stable(game, partition)[0]
            if verdict and connected:
                verdict = self.ashg.is_connected_partition(game, partition)[0]
            self._stable[key] = verdict
        return verdict

    def oracle_has_some(self, inst, connected: bool) -> bool:
        key = (inst.name, connected)
        if key not in self._oracle:
            search = (self.ashg.brute_force_connected_nash if connected
                      else self.ashg.brute_force_nash)
            self._oracle[key] = search(self.instance(inst)) is not None
        return self._oracle[key]

    @staticmethod
    def exit_problem(code, answer) -> str | None:
        if answer not in EXIT:
            return f"no answer line (exit {code})"
        if code != EXIT[answer]:
            return f"exit {code} does not match answer {answer}"
        return None

    def _some_problem(self, inst, part_text, connected) -> str | None:
        if part_text is None:
            return "SOME without a partition file"
        try:
            ok = self.stable(inst.name, self.instance(inst), part_text, connected)
        except ValueError as exc:
            return f"unreadable partition: {exc}"
        return None if ok else "SOME partition fails the verifier"

    def _none_problem(self, inst, connected, key) -> str | None:
        if inst.nonneg or (inst.symmetric and not connected):
            return "NONE on an instance that always has a stable partition"
        if inst.n <= ORACLE_LIMIT:
            if self.oracle_has_some(inst, connected):
                return "NONE but the oracle finds a stable partition"
            return None
        if self.recorded is None:
            self.held_out_skips += 1
            return None
        if self.recorded.get(key) == "SOME":
            return "NONE but the recorded answer is SOME"
        return None

    # -- per call -------------------------------------------------------------

    def solve(self, inst, mode, code, answer, part_text) -> str | None:
        problem = self.exit_problem(code, answer)
        if problem:
            return problem
        connected = mode == "connected-nash"
        if answer == "SOME":
            return self._some_problem(inst, part_text, connected)
        if answer == "NONE":
            if mode == "dynamics":
                return "dynamics answered NONE"
            return self._none_problem(inst, connected, f"{inst.name}:solve:{mode}")
        return None

    def oracle(self, inst, mode, code, answer, part_text) -> str | None:
        problem = self.exit_problem(code, answer)
        if problem:
            return problem
        connected = mode == "connected-nash"
        if answer == "SOME":
            return self._some_problem(inst, part_text, connected)
        if answer == "NONE":
            return self._none_problem(inst, connected, f"{inst.name}:oracle:{mode}")
        return "oracle answered UNKNOWN below its cap"

    def verify(self, inst, part_text, connected, code, answer) -> str | None:
        problem = self.exit_problem(code, answer)
        if problem:
            return problem
        if part_text is None:
            return "partition file missing"
        try:
            expected = self.stable(inst.name, self.instance(inst), part_text, connected)
        except ValueError as exc:
            return f"unreadable partition: {exc}"
        if (answer == "STABLE") != expected:
            return f"verify said {answer}, checker says {'STABLE' if expected else 'UNSTABLE'}"
        return None

    def gen(self, g, code, inst_text, witness_text) -> str | None:
        if code != 0:
            return f"gen exited {code}"
        if inst_text is None or witness_text is None:
            return "gen wrote no instance or no witness"
        try:
            game = self.ashg.parse_instance(inst_text)
            ok = self.stable(("gen", g.name), game, witness_text, g.connected)
        except ValueError as exc:
            return f"unreadable gen output: {exc}"
        return None if ok else "generator witness fails the verifier"

    @staticmethod
    def consistency(answers: dict) -> str | None:
        """Cross-mode check over one instance's answers in one pass.

        `answers` maps (command, mode) to the answer; SOME answers in it
        have already been certified.
        """
        plain = answers.get(("solve", "nash"))
        if plain == "NONE" and "SOME" in (answers.get(("solve", "connected-nash")),
                                         answers.get(("solve", "dynamics"))):
            return "plain NONE but another mode certified a stable partition"
        for mode in ("nash", "connected-nash"):
            pair = {answers.get(("solve", mode)), answers.get(("oracle", mode))}
            if pair == {"SOME", "NONE"}:
                return f"solver and oracle disagree in {mode} mode"
        return None
