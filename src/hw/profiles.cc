#include "src/hw/profiles.h"

namespace adaserve {

ModelProfile Llama31_70B() {
  return ModelProfile{
      .name = "Llama-3.1-70B-Instruct",
      .params = 70.6e9,
      .num_layers = 80,
      .hidden_dim = 8192,
      .kv_heads = 8,
      .head_dim = 128,
  };
}

ModelProfile Qwen25_32B() {
  return ModelProfile{
      .name = "Qwen2.5-32B-Instruct",
      .params = 32.8e9,
      .num_layers = 64,
      .hidden_dim = 5120,
      .kv_heads = 8,
      .head_dim = 128,
  };
}

ModelProfile Llama32_1B() {
  return ModelProfile{
      .name = "Llama-3.2-1B-Instruct",
      .params = 1.24e9,
      .num_layers = 16,
      .hidden_dim = 2048,
      .kv_heads = 8,
      .head_dim = 64,
  };
}

ModelProfile Qwen25_05B() {
  return ModelProfile{
      .name = "Qwen2.5-0.5B-Instruct",
      .params = 0.49e9,
      .num_layers = 24,
      .hidden_dim = 896,
      .kv_heads = 2,
      .head_dim = 64,
  };
}

ModelProfile Llama31_8B() {
  return ModelProfile{
      .name = "Llama-3.1-8B-Instruct",
      .params = 8.03e9,
      .num_layers = 32,
      .hidden_dim = 4096,
      .kv_heads = 8,
      .head_dim = 128,
  };
}

}  // namespace adaserve
