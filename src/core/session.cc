#include "core/session.h"

namespace orion {

Session::Session(Database* db, SessionOptions options)
    : db_(db), options_(options) {}

Status Session::Run(const std::function<Status(TransactionContext&)>& fn) {
  return RunWithRetries(db_, db_->trace(), options_, stats_,
                        db_->engine_metrics().session, fn);
}

}  // namespace orion
