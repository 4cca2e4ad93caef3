#include "query/traversal.h"

#include <algorithm>
#include <deque>
#include <unordered_map>
#include <unordered_set>

namespace orion {

namespace {

bool EdgePasses(const TraversalOptions& opts, bool edge_exclusive) {
  if (opts.exclusive && !opts.shared) {
    return edge_exclusive;
  }
  if (opts.shared && !opts.exclusive) {
    return !edge_exclusive;
  }
  return true;
}

bool ClassPasses(const ObjectView& view, const TraversalOptions& opts,
                 Uid uid) {
  if (opts.classes.empty()) {
    return true;
  }
  const Object* obj = view.Lookup(uid);
  if (obj == nullptr) {
    return false;
  }
  const SchemaView* schema = view.schema();
  return std::any_of(opts.classes.begin(), opts.classes.end(),
                     [&](ClassId c) {
                       return schema->IsSubclassOf(obj->class_id(), c);
                     });
}

/// Composite parents of one object, with the edge kind.  Includes the
/// generic references of a generic instance (§5.3).
std::vector<std::pair<Uid, bool /*exclusive*/>> ParentEdges(
    const ObjectView& view, Uid uid) {
  std::vector<std::pair<Uid, bool>> out;
  const Object* obj = view.Lookup(uid);
  if (obj == nullptr) {
    return out;
  }
  for (const ReverseRef& r : obj->reverse_refs()) {
    out.emplace_back(r.parent, r.exclusive);
  }
  for (const GenericRef& g : obj->generic_refs()) {
    out.emplace_back(g.parent, g.exclusive);
  }
  return out;
}

/// The composite attributes of each class as `view`'s schema resolves
/// them, resolved once per class: a walk visits many instances of few
/// classes.  A class that does not resolve maps to no attributes.
class CompositeAttributes {
 public:
  explicit CompositeAttributes(const ObjectView& view) : view_(view) {}

  const std::vector<AttributeSpec>& Of(ClassId cls) {
    auto [it, inserted] = by_class_.try_emplace(cls);
    if (inserted) {
      auto attrs = view_.schema()->ResolvedAttributes(cls);
      if (attrs.ok()) {
        for (AttributeSpec& spec : *attrs) {
          if (spec.is_composite()) {
            it->second.push_back(std::move(spec));
          }
        }
      }
    }
    return it->second;
  }

 private:
  const ObjectView& view_;
  std::unordered_map<ClassId, std::vector<AttributeSpec>> by_class_;
};

}  // namespace

Result<std::vector<Uid>> ComponentsOf(const ObjectView& view, Uid object,
                                      const TraversalOptions& opts) {
  if (view.Lookup(object) == nullptr) {
    return Status::NotFound("object " + object.ToString());
  }
  std::vector<Uid> out;
  CompositeAttributes composite(view);
  std::unordered_set<Uid> visited{object};
  // (uid, depth) pairs; depth of direct components is 1.
  std::deque<std::pair<Uid, int>> frontier{{object, 0}};
  while (!frontier.empty()) {
    auto [cur, depth] = frontier.front();
    frontier.pop_front();
    if (opts.level.has_value() && depth >= *opts.level) {
      continue;
    }
    const Object* obj = view.Lookup(cur);
    if (obj == nullptr) {
      continue;
    }
    for (const AttributeSpec& spec : composite.Of(obj->class_id())) {
      if (!EdgePasses(opts, spec.exclusive)) {
        continue;
      }
      for (Uid child : obj->Get(spec.name).ReferencedUids()) {
        if (!visited.insert(child).second) {
          continue;
        }
        if (ClassPasses(view, opts, child)) {
          out.push_back(child);
        }
        frontier.emplace_back(child, depth + 1);
      }
    }
  }
  return out;
}

Result<std::vector<Uid>> ParentsOf(const ObjectView& view, Uid object,
                                   const TraversalOptions& opts) {
  if (view.Lookup(object) == nullptr) {
    return Status::NotFound("object " + object.ToString());
  }
  std::vector<Uid> out;
  std::unordered_set<Uid> seen;
  for (const auto& [parent, exclusive] : ParentEdges(view, object)) {
    if (!EdgePasses(opts, exclusive)) {
      continue;
    }
    if (!seen.insert(parent).second) {
      continue;
    }
    if (ClassPasses(view, opts, parent)) {
      out.push_back(parent);
    }
  }
  return out;
}

Result<std::vector<Uid>> AncestorsOf(const ObjectView& view, Uid object,
                                     const TraversalOptions& opts) {
  if (view.Lookup(object) == nullptr) {
    return Status::NotFound("object " + object.ToString());
  }
  std::vector<Uid> out;
  std::unordered_set<Uid> visited{object};
  std::deque<Uid> frontier{object};
  while (!frontier.empty()) {
    const Uid cur = frontier.front();
    frontier.pop_front();
    for (const auto& [parent, exclusive] : ParentEdges(view, cur)) {
      if (!EdgePasses(opts, exclusive)) {
        continue;
      }
      if (!visited.insert(parent).second) {
        continue;
      }
      if (ClassPasses(view, opts, parent)) {
        out.push_back(parent);
      }
      frontier.push_back(parent);
    }
  }
  return out;
}

Result<std::optional<int>> ComponentLevel(const ObjectView& view,
                                          Uid component, Uid ancestor) {
  if (view.Lookup(component) == nullptr ||
      view.Lookup(ancestor) == nullptr) {
    return Status::NotFound("object does not exist");
  }
  // Breadth-first upward from the component gives the shortest path in
  // composite references.
  std::unordered_set<Uid> visited{component};
  std::deque<std::pair<Uid, int>> frontier{{component, 0}};
  while (!frontier.empty()) {
    auto [cur, depth] = frontier.front();
    frontier.pop_front();
    if (cur == ancestor) {
      return std::optional<int>(depth);
    }
    for (const auto& [parent, exclusive] : ParentEdges(view, cur)) {
      (void)exclusive;
      if (visited.insert(parent).second) {
        frontier.emplace_back(parent, depth + 1);
      }
    }
  }
  return std::optional<int>(std::nullopt);
}

Result<bool> ComponentOf(const ObjectView& view, Uid object1, Uid object2) {
  ORION_ASSIGN_OR_RETURN(std::optional<int> level,
                         ComponentLevel(view, object1, object2));
  return level.has_value() && *level > 0;
}

Result<bool> ChildOf(const ObjectView& view, Uid object1, Uid object2) {
  if (view.Lookup(object1) == nullptr || view.Lookup(object2) == nullptr) {
    return Status::NotFound("object does not exist");
  }
  for (const auto& [parent, exclusive] : ParentEdges(view, object1)) {
    (void)exclusive;
    if (parent == object2) {
      return true;
    }
  }
  return false;
}

Result<bool> ExclusiveComponentOf(const ObjectView& view, Uid object1,
                                  Uid object2) {
  ORION_ASSIGN_OR_RETURN(bool is_component,
                         ComponentOf(view, object1, object2));
  if (!is_component) {
    return false;
  }
  const Object* obj = view.Lookup(object1);
  return obj != nullptr && obj->HasExclusiveParent();
}

Result<bool> SharedComponentOf(const ObjectView& view, Uid object1,
                               Uid object2) {
  ORION_ASSIGN_OR_RETURN(bool is_component,
                         ComponentOf(view, object1, object2));
  if (!is_component) {
    return false;
  }
  const Object* obj = view.Lookup(object1);
  return obj != nullptr && !obj->HasExclusiveParent();
}

// --- Live-table convenience overloads ----------------------------------------

Result<std::vector<Uid>> ComponentsOf(ObjectManager& om, Uid object,
                                      const TraversalOptions& opts) {
  return ComponentsOf(LiveView(om), object, opts);
}

Result<std::vector<Uid>> ParentsOf(ObjectManager& om, Uid object,
                                   const TraversalOptions& opts) {
  return ParentsOf(LiveView(om), object, opts);
}

Result<std::vector<Uid>> AncestorsOf(ObjectManager& om, Uid object,
                                     const TraversalOptions& opts) {
  return AncestorsOf(LiveView(om), object, opts);
}

Result<std::optional<int>> ComponentLevel(ObjectManager& om, Uid component,
                                          Uid ancestor) {
  return ComponentLevel(LiveView(om), component, ancestor);
}

Result<bool> ComponentOf(ObjectManager& om, Uid object1, Uid object2) {
  return ComponentOf(LiveView(om), object1, object2);
}

Result<bool> ChildOf(ObjectManager& om, Uid object1, Uid object2) {
  return ChildOf(LiveView(om), object1, object2);
}

Result<bool> ExclusiveComponentOf(ObjectManager& om, Uid object1,
                                  Uid object2) {
  return ExclusiveComponentOf(LiveView(om), object1, object2);
}

Result<bool> SharedComponentOf(ObjectManager& om, Uid object1, Uid object2) {
  return SharedComponentOf(LiveView(om), object1, object2);
}

}  // namespace orion
