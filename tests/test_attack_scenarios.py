"""Named attack scenarios per server: the semantic attacks the paper
motivates, pinned as regression tests.

Each test targets a specific security property of one workload (the
kind of non-control-data attack Chen et al. [20] catalogued), tampering
the exact variable that carries the property and asserting the IPDS
catches the resulting infeasible path.
"""


from repro import TamperSpec, compile_program, monitored_run, observed_run
from repro.interp import MemoryMap, STACK_BASE
from repro.workloads import get_workload


def stack_address(program, fn_name, var_name):
    """Address of a local in the entry activation of ``fn_name``."""
    mm = MemoryMap(program.module)
    layout = mm.frame_layouts[fn_name]
    offsets = [o for v, o in layout.offsets.items() if v.name == var_name]
    assert offsets, f"{var_name} not in frame of {fn_name}"
    return STACK_BASE + offsets[0]


def attack(program, inputs, trigger, address, value):
    clean = observed_run(program, inputs=inputs)
    tampered, ipds = monitored_run(
        program,
        inputs=inputs,
        tamper=TamperSpec("read", trigger, address, value),
    )
    changed = tampered.branch_trace != clean.branch_trace
    return clean, tampered, changed, ipds


def sweep_triggers(program, inputs, address, value, max_trigger):
    """Try several tamper points; return (any_changed, any_detected)."""
    changed = detected = False
    for trigger in range(2, max_trigger + 1):
        _, _, chg, ipds = attack(program, inputs, trigger, address, value)
        changed = changed or chg
        detected = detected or ipds.detected
    return changed, detected


# ----------------------------------------------------------------------


def test_telnetd_privilege_escalation_detected():
    # Unauthenticated session; flip `authenticated` to 1 mid-session.
    workload = get_workload("telnetd")
    program = compile_program(workload.source, "telnetd")
    address = stack_address(program, "main", "authenticated")
    # uid=5, bad option, three failed passwords, then commands refused.
    inputs = [5, 0, 1, 2, 3, 1, 1, 1, 0]
    changed, detected = sweep_triggers(program, inputs, address, 1, 7)
    assert changed and detected


def test_telnetd_root_grant_detected():
    # Authenticated non-root session; flip `is_root`.
    workload = get_workload("telnetd")
    program = compile_program(workload.source, "telnetd")
    address = stack_address(program, "main", "is_root")
    # uid=1 -> password 20; then shell commands including cat-shadow.
    inputs = [1, 1, 20, 2, 2, 2, 0]
    changed, detected = sweep_triggers(program, inputs, address, 1, 6)
    assert changed and detected


def test_wuftpd_chroot_escape_detected():
    # Anonymous session is chrooted; clearing `chrooted` lets CWD ..
    # escape at depth 0.
    workload = get_workload("wu-ftpd")
    program = compile_program(workload.source, "wu-ftpd")
    address = stack_address(program, "main", "is_anonymous")
    # anonymous login, then STAT (consults is_anonymous/chrooted) twice.
    inputs = [0, 0, 6, 6, 6, 0]
    changed, detected = sweep_triggers(program, inputs, address, 0, 5)
    assert changed and detected


def test_sysklogd_threshold_suppression_detected():
    # Raising the threshold suppresses log lines (log-evasion attack).
    workload = get_workload("sysklogd")
    program = compile_program(workload.source, "sysklogd")
    address = stack_address(program, "main", "threshold")
    inputs = [2, 5, 0, 4, 101, 4, 102, 4, 103, -1]
    changed, detected = sweep_triggers(program, inputs, address, 99, 8)
    assert changed and detected


def test_httpd_realm_bypass_detected():
    workload = get_workload("httpd")
    program = compile_program(workload.source, "httpd")
    address = stack_address(program, "main", "authorized")
    # No credentials; protected GETs are denied until tampering.
    inputs = [512, 1111, 1, 60, 1, 70, 1, 80, 0]
    changed, detected = sweep_triggers(program, inputs, address, 1, 8)
    assert changed and detected


def test_sendmail_relay_bypass_detected():
    workload = get_workload("sendmail")
    program = compile_program(workload.source, "sendmail")
    address = stack_address(program, "main", "relay_allowed")
    # Remote sender (no relay) keeps RCPTing remote recipients.
    inputs = [5, 1, 9, 2, 500, 3, 1500, 3, 1500, 3, 1500, 4, 0]
    changed, detected = sweep_triggers(program, inputs, address, 1, 12)
    assert changed and detected


def test_sshd_uid_zero_grant_detected():
    workload = get_workload("sshd")
    program = compile_program(workload.source, "sshd")
    address = stack_address(program, "main", "auth_uid")
    # uid=7 authenticates (password 80), opens a channel, runs a
    # privileged command (>=100) repeatedly.
    inputs = [3, 1, 7, 80, 1, 2, 150, 2, 150, 0]
    changed, detected = sweep_triggers(program, inputs, address, 0, 9)
    assert changed and detected


def test_atftpd_transfer_state_corruption_detected():
    workload = get_workload("atftpd")
    program = compile_program(workload.source, "atftpd")
    address = stack_address(program, "main", "transfer_open")
    # RRQ of 3 blocks, stream them with status probes between.
    inputs = [1, 3, 4, 3, 1, 4, 3, 2, 4, 3, 3, 0]
    changed, detected = sweep_triggers(program, inputs, address, 0, 10)
    assert changed and detected


def test_xinetd_paranoid_flag_clear_detected():
    workload = get_workload("xinetd")
    program = compile_program(workload.source, "xinetd")
    address = stack_address(program, "main", "paranoid")
    # paranoid on, all services enabled; bad-source connects get 403
    # until the flag is cleared.
    inputs = [4, 1] + [1] * 8 + [1, 0, 2000, 3, 1, 0, 2000, 3, 0]
    changed, detected = sweep_triggers(program, inputs, address, 0, 16)
    assert changed and detected


def test_crond_capacity_overflow_detected():
    workload = get_workload("crond")
    program = compile_program(workload.source, "crond")
    address = stack_address(program, "main", "njobs")
    # Register a couple of jobs, tick a few times; blow up njobs.
    inputs = [0, 1, 2, 0, 1, 3, 0, 3, 3, 3, 0]
    changed, detected = sweep_triggers(
        program, inputs, address, 1000, 10
    )
    assert changed and detected


def test_portmap_caller_identity_flip_detected():
    workload = get_workload("portmap")
    program = compile_program(workload.source, "portmap")
    address = stack_address(program, "main", "caller_uid")
    # Unprivileged caller; flipping uid to 0 unlocks privileged ports.
    inputs = [5, 1, 10, 8080, 3, 10, 3, 10, 0]
    changed, detected = sweep_triggers(program, inputs, address, 0, 8)
    assert changed and detected


# ----------------------------------------------------------------------
# Negative scenario: data-only tampering that cannot change control
# flow is (correctly) invisible — the paper's stated scope limit.
# ----------------------------------------------------------------------


def test_pure_data_tampering_not_detected():
    workload = get_workload("telnetd")
    program = compile_program(workload.source, "telnetd")
    # termbuf cell 5 is summed into the checksum; writing a small
    # positive value keeps the checksum branch direction unchanged.
    address = stack_address(program, "main", "termbuf") + 5
    inputs = [1, 1, 20, 1, 1, 0]
    clean, tampered, changed, ipds = attack(
        program, inputs, trigger=4, address=address, value=3
    )
    assert not changed
    assert not ipds.detected
