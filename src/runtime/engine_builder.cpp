#include "runtime/engine_builder.hpp"

#include <utility>

#include "common/error.hpp"

namespace perfq::runtime {

std::unique_ptr<Engine> EngineBuilder::build() {
  if (built_) {
    throw ConfigError{"EngineBuilder: build() called twice (the builder's "
                      "program was already consumed)"};
  }
  built_ = true;
  std::optional<ThreadedConfig> threaded;
  if (shards_) {
    if (*shards_ == 0) {
      throw ConfigError{"EngineBuilder: sharded(N) needs at least one shard; "
                        "omit it to fold on the caller"};
    }
    threaded = threaded_;
    threaded->num_shards = *shards_;
  } else if (threaded_knob_ != nullptr) {
    throw ConfigError{std::string{"EngineBuilder: "} + threaded_knob_ +
                      " is a sharded-engine knob; call sharded(N) first"};
  }
  // The engine's constructor is private to this builder.
  return std::unique_ptr<Engine>(
      new Engine(std::move(program_), std::move(config_), threaded));
}

}  // namespace perfq::runtime
