"""Model, parallelism, and training configuration objects.

These configurations are the inputs to the workload generator
(:mod:`repro.parallelism.dag`): a transformer :class:`ModelConfig`, a
:class:`ParallelismConfig` describing how the model is split across GPUs, and a
:class:`TrainingConfig` with batch sizes and precision.  Together they
determine every collective's payload size and the per-micro-batch compute
volume, which is all the photonic-rail analysis needs from the ML side.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict

from ..errors import ConfigurationError

#: Bytes per element for the supported training precisions.
DTYPE_BYTES: Dict[str, int] = {
    "fp32": 4,
    "tf32": 4,
    "bf16": 2,
    "fp16": 2,
    "fp8": 1,
}


@dataclass(frozen=True)
class ModelConfig:
    """A decoder-only transformer model (the LLM family the paper targets).

    Attributes
    ----------
    name:
        Human-readable name (e.g. ``"Llama3-8B"``).
    num_layers:
        Number of transformer blocks.
    hidden_size:
        Model (residual-stream) width.
    ffn_hidden_size:
        Width of the feed-forward inner layer (SwiGLU gate+up treated as one
        effective width for parameter counting).
    num_attention_heads:
        Query heads.
    num_kv_heads:
        Key/value heads (grouped-query attention); equals
        ``num_attention_heads`` for classic multi-head attention.
    vocab_size:
        Vocabulary size (embedding + output head).
    seq_length:
        Training sequence length in tokens.
    num_experts:
        Experts per MoE layer; 0 for dense models.
    moe_top_k:
        Number of experts routed per token (MoE models only).
    """

    name: str
    num_layers: int
    hidden_size: int
    ffn_hidden_size: int
    num_attention_heads: int
    num_kv_heads: int
    vocab_size: int
    seq_length: int
    num_experts: int = 0
    moe_top_k: int = 2

    def __post_init__(self) -> None:
        if min(self.num_layers, self.hidden_size, self.ffn_hidden_size) <= 0:
            raise ConfigurationError("model dimensions must be positive")
        if self.num_attention_heads <= 0 or self.num_kv_heads <= 0:
            raise ConfigurationError("attention head counts must be positive")
        if self.hidden_size % self.num_attention_heads != 0:
            raise ConfigurationError("hidden_size must divide evenly into heads")
        if self.num_attention_heads % self.num_kv_heads != 0:
            raise ConfigurationError("num_kv_heads must divide num_attention_heads")
        if self.vocab_size <= 0 or self.seq_length <= 0:
            raise ConfigurationError("vocab_size and seq_length must be positive")
        if self.num_experts < 0:
            raise ConfigurationError("num_experts must be non-negative")

    # ------------------------------------------------------------------ #
    # Parameter counting
    # ------------------------------------------------------------------ #

    @property
    def head_dim(self) -> int:
        """Dimension of one attention head."""
        return self.hidden_size // self.num_attention_heads

    @property
    def attention_params_per_layer(self) -> int:
        """Parameters of one attention block (QKV + output projections)."""
        q = self.hidden_size * self.hidden_size
        kv = 2 * self.hidden_size * (self.num_kv_heads * self.head_dim)
        out = self.hidden_size * self.hidden_size
        return q + kv + out

    @property
    def mlp_params_per_layer(self) -> int:
        """Parameters of one feed-forward block (gate, up, down projections)."""
        dense = 3 * self.hidden_size * self.ffn_hidden_size
        if self.num_experts:
            return dense * self.num_experts
        return dense

    @property
    def params_per_layer(self) -> int:
        """Parameters of one transformer block (attention + MLP + norms)."""
        norms = 2 * self.hidden_size
        return self.attention_params_per_layer + self.mlp_params_per_layer + norms

    @property
    def embedding_params(self) -> int:
        """Parameters of the input embedding and output head (untied)."""
        return 2 * self.vocab_size * self.hidden_size

    @property
    def is_moe(self) -> bool:
        """Whether the model uses mixture-of-experts layers."""
        return self.num_experts > 0

    def flops_per_token_per_layer(self) -> float:
        """Dense forward FLOPs per token per layer (2 * active params, plus attention)."""
        active_mlp = self.mlp_params_per_layer
        if self.is_moe:
            active_mlp = 3 * self.hidden_size * self.ffn_hidden_size * self.moe_top_k
        matmul_params = self.attention_params_per_layer + active_mlp
        attention_flops = 2 * 2 * self.seq_length * self.hidden_size
        return 2.0 * matmul_params + attention_flops


@dataclass(frozen=True)
class ParallelismConfig:
    """How the model is partitioned across GPUs.

    Dimension sizes multiply to the world size.  ``dp`` is the data-parallel
    degree; ``use_fsdp`` selects fully-sharded data parallelism (per-layer
    AllGather/ReduceScatter) instead of classic DP (post-backward AllReduce).
    ``use_sp`` (sequence parallelism) rides on the TP groups; it shards the
    pipeline activations across TP and so shrinks each PP Send/Recv.
    """

    tp: int = 1
    pp: int = 1
    dp: int = 1
    cp: int = 1
    ep: int = 1
    use_fsdp: bool = True
    use_sp: bool = False

    def __post_init__(self) -> None:
        for name, value in (
            ("tp", self.tp),
            ("pp", self.pp),
            ("dp", self.dp),
            ("cp", self.cp),
            ("ep", self.ep),
        ):
            if value < 1:
                raise ConfigurationError(f"parallelism degree {name} must be >= 1")

    @property
    def world_size(self) -> int:
        """Number of GPUs the configuration occupies."""
        return self.tp * self.pp * self.dp * self.cp * self.ep

    def describe(self) -> str:
        """Short human-readable description, e.g. ``"TP=4 FSDP=2 PP=2"``."""
        parts = []
        if self.tp > 1:
            parts.append(f"TP={self.tp}" + ("+SP" if self.use_sp else ""))
        if self.dp > 1:
            parts.append(("FSDP=" if self.use_fsdp else "DP=") + str(self.dp))
        if self.pp > 1:
            parts.append(f"PP={self.pp}")
        if self.cp > 1:
            parts.append(f"CP={self.cp}")
        if self.ep > 1:
            parts.append(f"EP={self.ep}")
        return " ".join(parts) if parts else "single GPU"


@dataclass(frozen=True)
class TrainingConfig:
    """Batching and precision of one training run.

    Attributes
    ----------
    global_batch_size:
        Sequences per optimizer step across all data-parallel replicas.
    micro_batch_size:
        Sequences per micro-batch per model replica.
    param_dtype / grad_dtype:
        Precision of parameters as communicated (FSDP AllGather) and of
        gradients as reduced (ReduceScatter / AllReduce).
    optimizer_sync_collectives:
        Number of small synchronization AllReduce calls in the optimizer step
        (grad-norm clipping, loss scaling, numerics checks — paper §3.1).
    """

    global_batch_size: int = 16
    micro_batch_size: int = 2
    param_dtype: str = "bf16"
    grad_dtype: str = "fp32"
    activation_dtype: str = "bf16"
    optimizer_sync_collectives: int = 3

    def __post_init__(self) -> None:
        if self.global_batch_size <= 0 or self.micro_batch_size <= 0:
            raise ConfigurationError("batch sizes must be positive")
        for dtype in (self.param_dtype, self.grad_dtype, self.activation_dtype):
            if dtype not in DTYPE_BYTES:
                raise ConfigurationError(f"unsupported dtype {dtype!r}")

    @property
    def param_bytes(self) -> int:
        """Bytes per parameter as communicated."""
        return DTYPE_BYTES[self.param_dtype]

    @property
    def grad_bytes(self) -> int:
        """Bytes per gradient element as communicated."""
        return DTYPE_BYTES[self.grad_dtype]

    @property
    def activation_bytes(self) -> int:
        """Bytes per activation element as communicated."""
        return DTYPE_BYTES[self.activation_dtype]

    def num_microbatches(self, parallelism: ParallelismConfig) -> int:
        """Micro-batches per pipeline per iteration.

        ``global_batch_size / (dp * micro_batch_size)``, rounded up to at
        least 1 and validated to divide evenly.
        """
        denom = parallelism.dp * self.micro_batch_size
        if self.global_batch_size % denom != 0:
            raise ConfigurationError(
                f"global batch {self.global_batch_size} is not divisible by "
                f"dp * micro_batch_size = {denom}"
            )
        return max(1, self.global_batch_size // denom)


@dataclass(frozen=True)
class WorkloadConfig:
    """A complete workload: model + parallelism + training hyper-parameters."""

    model: ModelConfig
    parallelism: ParallelismConfig
    training: TrainingConfig = field(default_factory=TrainingConfig)

    def __post_init__(self) -> None:
        if self.model.num_layers % self.parallelism.pp != 0:
            raise ConfigurationError(
                f"num_layers={self.model.num_layers} must be divisible by "
                f"pp={self.parallelism.pp}"
            )
        if self.parallelism.cp > 1 and self.model.seq_length % self.parallelism.cp != 0:
            raise ConfigurationError("seq_length must be divisible by cp")
        if self.parallelism.ep > 1 and not self.model.is_moe:
            raise ConfigurationError("expert parallelism requires an MoE model")
        # Validate microbatch math eagerly so failures surface at config time.
        self.training.num_microbatches(self.parallelism)

    @property
    def world_size(self) -> int:
        """Number of GPUs the workload occupies."""
        return self.parallelism.world_size

    @property
    def layers_per_stage(self) -> int:
        """Transformer layers hosted by each pipeline stage."""
        return self.model.num_layers // self.parallelism.pp

    @property
    def num_microbatches(self) -> int:
        """Micro-batches per pipeline per iteration."""
        return self.training.num_microbatches(self.parallelism)

    # ------------------------------------------------------------------ #
    # Collective payload sizes (bytes)
    # ------------------------------------------------------------------ #

    def stage_params(self) -> float:
        """Parameters hosted by one pipeline stage (including a share of embeddings)."""
        return (
            self.layers_per_stage * self.model.params_per_layer
            + self.model.embedding_params / self.parallelism.pp
        )

    def layer_params_per_rank(self) -> float:
        """Per-rank parameter shard of one layer under TP (+FSDP sharding applied by caller)."""
        return self.model.params_per_layer / self.parallelism.tp

    def fsdp_allgather_bytes_per_layer(self) -> float:
        """Per-rank input shard of the per-layer FSDP parameter AllGather."""
        shard_params = self.layer_params_per_rank() / self.parallelism.dp
        return shard_params * self.training.param_bytes

    def fsdp_reducescatter_bytes_per_layer(self) -> float:
        """Per-rank input of the per-layer FSDP gradient ReduceScatter."""
        grads = self.layer_params_per_rank()
        return grads * self.training.grad_bytes

    def dp_allreduce_bytes(self) -> float:
        """Per-rank input of the classic-DP gradient AllReduce (whole stage)."""
        return (
            self.stage_params() / self.parallelism.tp * self.training.grad_bytes
        )

    def pp_activation_bytes(self) -> float:
        """Activation payload of one pipeline Send/Recv (one micro-batch)."""
        tokens = self.training.micro_batch_size * self.model.seq_length
        tokens /= self.parallelism.cp
        hidden = self.model.hidden_size
        if self.parallelism.use_sp:
            hidden /= self.parallelism.tp
        return tokens * hidden * self.training.activation_bytes

    def ep_alltoall_bytes(self) -> float:
        """Per-rank input of one expert-parallel AllToAll (token dispatch)."""
        tokens = self.training.micro_batch_size * self.model.seq_length
        tokens /= self.parallelism.cp
        return (
            tokens
            * self.model.hidden_size
            * self.training.activation_bytes
            * self.model.moe_top_k
        )

    def cp_allgather_bytes(self) -> float:
        """Per-rank input of one context-parallel KV AllGather (one layer)."""
        tokens = self.training.micro_batch_size * self.model.seq_length / self.parallelism.cp
        kv_width = 2 * self.model.num_kv_heads * self.model.head_dim
        return tokens * kv_width * self.training.activation_bytes

    def optimizer_sync_bytes(self) -> float:
        """Payload of one optimizer-step synchronization AllReduce (scalar-ish)."""
        return 64.0 * 1024.0
