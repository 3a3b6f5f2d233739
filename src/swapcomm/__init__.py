"""swapcomm: simulator and verifier for bidirectional secure messaging over
entanglement swapping of pre-shared Bell pairs.

The quantum substrate is exact dense state-vector arithmetic on 2- and
4-qubit registers; the protocol layer runs complete two-party sessions over
a public classical announcement channel; the adversary layer quantifies
what a transcript-only eavesdropper learns.
"""

__version__ = "0.1.0"

from .quantum import (  # noqa: E402
    BELL_ORDER,
    BellLabel,
    PauliCode,
    PureState,
    apply_local,
    basis_state,
    bell_measure,
    bell_project,
    bell_project_all,
    bell_sample,
    bell_state,
    state_equal_up_to_phase,
    tensor,
)
from .swap import (  # noqa: E402
    AuditReport,
    DecodeTable,
    OutcomeDistribution,
    SwapOutcome,
    audit_reference_table,
    composite_label,
    decode_partner,
    generate_decode_table,
    infer_second_pair,
    swap_decompose,
)
from .channel import (  # noqa: E402
    Announcement,
    AnnouncementKind,
    ChannelError,
    FrameError,
    InProcessChannel,
    OrderingError,
    TransportError,
)
from .protocol import (  # noqa: E402
    BlockRecord,
    CapacityError,
    MessageBits,
    ReplayError,
    SessionConfig,
    SessionError,
    SessionMode,
    SessionResult,
    SilentFallback,
    Transcript,
    decode_ops,
    encode_bits,
    parse_message,
    replay,
    run_session,
)
from .adversary import (  # noqa: E402
    EveView,
    PosteriorReport,
    estimate_mi_monte_carlo,
    eve_posterior,
    independent_priors,
    information_summary,
    pattern_information,
    point_prior,
    uniform_priors,
)
