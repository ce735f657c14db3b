"""Neural controllers for small ODE systems, checked against closed-form
optimal control.

The package trains time-parametrized MLP controllers through a forward-Euler
simulator with exact discrete adjoints, and ships the analytic oracles
(minimum-energy controls, constant baselines, single-neuron learning maps)
that the experiments and the acceptance suite compare against.
"""

__version__ = "0.1.0"

from .dynamics import (
    ControlProblem,
    LinearDynamics,
    MovingParticleDynamics,
    Trajectory,
    control_energy,
    integrate_euler,
    integrator,
    mse_control,
    scalar_linear,
    terminal_loss,
    work_functional,
)
from .gradients import LossSpec, bptt_grad, fd_grad, tbptt_grad
from .linalg import SeededRng, gramian, mat_exp, solve_spd
from .nets import (
    Activation,
    ConstantControl,
    InitScheme,
    LINEAR,
    MlpSpec,
    RELU,
    SingleNeuron,
    TANH,
    elu,
    init_params,
    leaky_relu,
)
from .oracles import (
    OcSolution,
    baseline_energy_recursion,
    constant_baseline,
    constant_oc,
    linear_nd_oc,
    linear_neuron_map,
    moving_particle_oc,
    oc_for_problem,
    relu_neuron_map,
    scalar_linear_oc,
)
from .training import Adam, Protocol, Sd, TrainResult, train, train_runs
from .experiments import (
    architecture_scan,
    depth_width_sweep,
    mu_sweep,
    phase_diagram,
    protocol_comparison,
    sweep_preset,
)
from .landscape import ProjectionSpec, make_projection, project, sharpness_1d
