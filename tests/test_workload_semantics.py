"""Protocol-semantics tests: each server behaves like the daemon it
models, for fixed input scripts.

These pin the workloads' observable behaviour so later edits to the
mini-C sources cannot silently change the experiments' subject matter.
"""


from repro.pipeline import compile_program, observed_run
from repro.workloads import get_workload


def run(name, inputs):
    workload = get_workload(name)
    program = compile_program(workload.source, name)
    result = observed_run(program, inputs=inputs)
    assert result.ok, result.status
    return result.outputs


def test_telnetd_successful_login_and_ls():
    # uid=1 (password 20), echo on, one ls, quit.
    out = run("telnetd", [1, 1, 20, 1, 0])
    assert 100 in out  # login banner: authenticated
    assert 101 in out  # ls output


def test_telnetd_lockout_after_three_failures():
    out = run("telnetd", [1, 1, 5, 6, 7, 1, 0])
    assert 900 in out  # not authenticated
    assert 999 in out  # command refused


def test_telnetd_su_grants_root():
    # uid=1 logs in, su with root password 13 (0*7+13), then cat shadow.
    out = run("telnetd", [1, 1, 20, 6, 13, 2, 0])
    assert 106 in out  # su succeeded
    assert 102 in out  # shadow read as root


def test_wuftpd_anonymous_upload_denied():
    # anonymous login, STOR.
    out = run("wu-ftpd", [0, 0, 4, 0])
    assert 230 in out  # logged in
    assert 553 in out  # upload denied


def test_wuftpd_real_user_upload_allowed():
    user = 4
    out = run("wu-ftpd", [user, user * 3 + 7, 4, 0])
    assert 226 in out


def test_wuftpd_chroot_blocks_cdup_at_root():
    out = run("wu-ftpd", [0, 0, 1, -1, 0])  # anonymous, CWD ..
    assert 553 in out


def test_xinetd_disabled_service_404():
    inputs = [4, 0] + [0] * 8 + [1, 3, 10, 0]
    out = run("xinetd", inputs)
    assert 404 in out


def test_xinetd_connection_cap_enforced():
    # limit 1, service 0 enabled, two connects to it.
    inputs = [1, 0, 1, 0, 0, 0, 0, 0, 0, 0, 1, 0, 10, 1, 0, 11, 0]
    out = run("xinetd", inputs)
    assert 200 in out  # first admitted
    assert 503 in out  # second refused


def test_crond_job_runs_on_period():
    # register a period-1 job as uid 0, tick twice.
    out = run("crond", [0, 1, 1, 0, 3, 3, 0])
    assert 201 in out  # registered
    assert 500 in out  # slot-0 job ran
    assert out[-2] >= 2  # runs counter


def test_crond_non_root_cannot_register_privileged():
    out = run("crond", [5, 1, 1, 1, 0])
    assert 401 in out


def test_sysklogd_threshold_filters():
    # threshold 4, console 7: priority 2 dropped, 5 written, 7 console.
    out = run("sysklogd", [4, 7, 0, 2, 111, 5, 222, 7, 333, -1])
    assert 111 not in out
    assert 222 in out
    assert 7007 in out  # console sink for priority 7
    written, dropped = out[-4], out[-3]
    assert (written, dropped) == (2, 1)


def test_atftpd_full_transfer_completes():
    out = run("atftpd", [1, 2, 3, 1, 3, 2, 0])
    assert 226 in out  # transfer complete
    assert out[-2] == 1  # completed count


def test_atftpd_wrong_block_retries():
    out = run("atftpd", [1, 2, 3, 9, 3, 1, 3, 2, 0])
    assert 425 in out  # retry on out-of-order block


def test_httpd_protected_path_requires_auth():
    out = run("httpd", [512, 1, 1, 60, 0])  # wrong credentials
    assert 401 in out
    out = run("httpd", [512, 4242, 1, 60, 0])
    assert 201 in out


def test_httpd_body_limit_413():
    out = run("httpd", [100, 0, 2, 5000, 0])
    assert 413 in out


def test_sendmail_remote_relay_denied_for_remote_sender():
    # HELO, MAIL from remote (1500), RCPT to remote (2000).
    out = run("sendmail", [5, 1, 9, 2, 1500, 3, 2000, 0])
    assert 550 in out


def test_sendmail_local_sender_may_relay():
    out = run("sendmail", [5, 1, 9, 2, 50, 3, 2000, 4, 0])
    assert 251 in out
    assert 354 in out  # delivered


def test_sshd_auth_then_exec():
    uid = 7
    out = run("sshd", [3, 1, uid, uid * 11 + 3, 1, 2, 50, 0])
    assert 52 in out  # auth ok
    assert 90 in out  # channel open
    assert 94 in out  # exec ok


def test_sshd_privileged_exec_needs_root():
    uid = 7
    out = run("sshd", [3, 1, uid, uid * 11 + 3, 1, 2, 150, 0])
    assert 96 in out  # privileged exec denied
    out = run("sshd", [3, 1, 0, 3, 1, 2, 150, 0])
    assert 95 in out  # root allowed


def test_portmap_set_then_getport():
    out = run("portmap", [0, 1, 12, 2049, 3, 12, 0])
    assert 200 in out  # registered
    assert 2049 in out  # lookup returns the port


def test_portmap_privileged_port_needs_root():
    out = run("portmap", [5, 1, 12, 80, 0])
    assert 401 in out
    out = run("portmap", [0, 1, 12, 80, 0])
    assert 200 in out


def test_scale_parameter_lengthens_sessions():
    import random

    for name in ("telnetd", "httpd", "portmap"):
        workload = get_workload(name)
        short = workload.make_inputs(random.Random("s"), 1)
        long = workload.make_inputs(random.Random("s"), 10)
        assert len(long) > len(short) * 3
