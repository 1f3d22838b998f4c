"""The unified exception hierarchy: one root, three families.

Every deliberate refusal in the reproduction must be a ``W5Error``;
policy denials must be ``FlowDenied``; write-path refusals must also be
``WriteDenied``; and every "no such X" must be ``NotFound`` — while all
historical class names keep working as the very same classes.
"""

import pytest

from repro.errors import FlowDenied, NotFound, W5Error, WriteDenied
from repro import errors as unified
from repro.db.errors import (DbError, NoSuchRow, NoSuchTable, SchemaError,
                             TableExists)
from repro.fs.errors import (FsError, IsADirectory, NoSuchPath,
                             NotADirectory, PathExists)
from repro.kernel.errors import (DeadProcess, EndpointMisuse, KernelError,
                                 MailboxEmpty, NoSuchEndpoint, NoSuchProcess,
                                 ResourceExhausted)
from repro.labels import (CapabilityError, FlowViolation, IntegrityViolation,
                          LabelError, SecrecyViolation, TagError,
                          WriteIntegrityViolation, WriteSecrecyViolation)
from repro.platform.errors import (AppCrashed, NoSuchApp, NoSuchUser,
                                   NotAuthorized, PlatformError)


ALL_LAYER_ERRORS = [
    LabelError, FlowViolation, SecrecyViolation, IntegrityViolation,
    WriteSecrecyViolation, WriteIntegrityViolation, CapabilityError, TagError,
    KernelError, NoSuchProcess, NoSuchEndpoint, DeadProcess, MailboxEmpty,
    EndpointMisuse, ResourceExhausted,
    FsError, NoSuchPath, PathExists, NotADirectory, IsADirectory,
    DbError, NoSuchTable, TableExists, NoSuchRow, SchemaError,
    PlatformError, NoSuchUser, NoSuchApp, NotAuthorized, AppCrashed,
]


class TestOneRoot:
    @pytest.mark.parametrize("exc", ALL_LAYER_ERRORS)
    def test_everything_is_a_w5error(self, exc):
        assert issubclass(exc, W5Error)


class TestFlowDeniedFamily:
    @pytest.mark.parametrize("exc", [
        FlowViolation, SecrecyViolation, IntegrityViolation,
        WriteSecrecyViolation, WriteIntegrityViolation,
        CapabilityError, NotAuthorized,
    ])
    def test_denials(self, exc):
        assert issubclass(exc, FlowDenied)

    @pytest.mark.parametrize("exc", [
        NoSuchPath, NoSuchRow, MailboxEmpty, TagError, SchemaError,
    ])
    def test_non_denials_stay_out(self, exc):
        assert not issubclass(exc, FlowDenied)


class TestWriteDeniedFamily:
    def test_write_variants_are_both_families(self):
        assert issubclass(WriteSecrecyViolation, WriteDenied)
        assert issubclass(WriteSecrecyViolation, SecrecyViolation)
        assert issubclass(WriteIntegrityViolation, WriteDenied)
        assert issubclass(WriteIntegrityViolation, IntegrityViolation)

    def test_read_denials_are_not_write_denied(self):
        assert not issubclass(SecrecyViolation, WriteDenied)
        assert not issubclass(IntegrityViolation, WriteDenied)

    def test_storage_write_refusal_is_write_denied(self):
        """End-to-end: a no-write-down refusal is catchable as
        WriteDenied and as the historical SecrecyViolation."""
        from repro.core import access
        from repro.kernel import Kernel
        from repro.labels import Label

        kernel = Kernel()
        root = kernel.spawn_trusted("root")
        t = kernel.create_tag(root, purpose="secret")
        tainted = kernel.spawn_trusted("tainted", slabel=Label([t]))
        with pytest.raises(WriteDenied):
            access.check_write(tainted, Label.EMPTY, Label.EMPTY, "obj")
        with pytest.raises(SecrecyViolation):
            access.check_write(tainted, Label.EMPTY, Label.EMPTY, "obj")


class TestNotFoundFamily:
    @pytest.mark.parametrize("exc", [
        NoSuchProcess, NoSuchEndpoint, NoSuchPath, NoSuchTable, NoSuchRow,
        NoSuchUser, NoSuchApp,
    ])
    def test_lookups(self, exc):
        assert issubclass(exc, NotFound)

    @pytest.mark.parametrize("exc", [PathExists, TableExists, DeadProcess])
    def test_non_lookups_stay_out(self, exc):
        assert not issubclass(exc, NotFound)


class TestAliasesUnchanged:
    def test_layer_bases_scope_their_subsystem(self):
        assert issubclass(NoSuchPath, FsError)
        assert issubclass(NoSuchRow, DbError)
        assert issubclass(NoSuchProcess, KernelError)
        assert issubclass(NotAuthorized, PlatformError)
        assert issubclass(SecrecyViolation, LabelError)

    def test_unified_module_exports(self):
        assert set(unified.__all__) == {"W5Error", "FlowDenied",
                                        "WriteDenied", "NotFound"}

    def test_session_auth_error_is_w5(self):
        from repro.net.session import AuthError
        assert issubclass(AuthError, W5Error)
