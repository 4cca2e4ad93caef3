// CAD versioning: a mechanical-design scenario in the spirit of the ORION
// CAD applications the paper cites, exercising §5 (versions of composite
// objects) and §7 (composite objects as a unit of locking).
//
// A versioned Assembly holds subassemblies; engineers derive new versions,
// references rebind per Figure 1, the generic-level ref counts follow
// Figure 3, and two engineers work on different composite objects
// concurrently under the extended locking protocol.

#include <cstdlib>
#include <iostream>

#include "core/database.h"
#include "query/traversal.h"

namespace {

void Check(const orion::Status& status, const char* what) {
  if (!status.ok()) {
    std::cerr << what << ": " << status.ToString() << "\n";
    std::exit(1);
  }
}

template <typename T>
T Unwrap(orion::Result<T> result, const char* what) {
  if (!result.ok()) {
    std::cerr << what << ": " << result.status().ToString() << "\n";
    std::exit(1);
  }
  return std::move(result).value();
}

}  // namespace

int main() {
  using orion::CompositeAttr;
  using orion::Value;
  orion::Database db;

  // Versionable Subassembly and Assembly classes; an assembly references
  // its subassembly through an independent exclusive composite reference
  // (re-usable when dismantled) and its bill-of-materials notes through a
  // dependent one.
  orion::ClassId sub_cls = Unwrap(
      db.MakeClass(orion::ClassSpec{.name = "Subassembly",
                                    .attributes = {orion::WeakAttr(
                                        "Material", "string")},
                                    .versionable = true}),
      "Subassembly class");
  (void)sub_cls;
  orion::ClassId asm_cls = Unwrap(
      db.MakeClass(orion::ClassSpec{
          .name = "Assembly",
          .attributes =
              {orion::WeakAttr("Name", "string"),
               CompositeAttr("Sub", "Subassembly", /*exclusive=*/true,
                             /*dependent=*/false),
               CompositeAttr("Notes", "Subassembly", /*exclusive=*/true,
                             /*dependent=*/true)},
          .versionable = true}),
      "Assembly class");
  (void)asm_cls;

  // --- Create version 0 of everything. --------------------------------------
  orion::Uid sub_v0 =
      Unwrap(db.Make("Subassembly", {},
                     {{"Material", Value::String("aluminium")}}),
             "subassembly v0");
  orion::Uid sub_generic = db.objects().Peek(sub_v0)->generic();
  orion::Uid note_v0 = Unwrap(db.Make("Subassembly"), "note v0");

  orion::Uid asm_v0 = Unwrap(
      db.Make("Assembly", {},
              {{"Name", Value::String("gearbox")},
               {"Sub", Value::Ref(sub_v0)},
               {"Notes", Value::Ref(note_v0)}}),
      "assembly v0");
  orion::Uid asm_generic = db.objects().Peek(asm_v0)->generic();
  std::cout << "Assembly v0 " << asm_v0.ToString()
            << " statically bound to subassembly v0 " << sub_v0.ToString()
            << ".\n";

  // The generic instance of the subassembly tracks the reference with a
  // ref-count (Figure 3).
  const orion::Object* g = db.objects().Peek(sub_generic);
  std::cout << "Reverse composite generic reference on "
            << sub_generic.ToString()
            << ": ref_count=" << g->generic_refs()[0].ref_count << "\n";

  // --- Derive a new assembly version (Figure 1). ----------------------------
  orion::Uid asm_v1 = Unwrap(db.versions().Derive(asm_v0), "derive v1");
  const orion::Object* v1 = db.objects().Peek(asm_v1);
  std::cout << "\nDerived assembly v1 " << asm_v1.ToString() << ":\n";
  std::cout << "  independent exclusive ref rebinds to the generic: Sub = "
            << v1->Get("Sub").ToString() << " (generic of subassembly is "
            << sub_generic.ToString() << ")\n";
  std::cout << "  dependent ref is set to Nil:                     Notes = "
            << v1->Get("Notes").ToString() << "\n";
  std::cout << "  weak value copied:                               Name = "
            << v1->Get("Name").ToString() << "\n";

  // Dynamic binding: the rebound reference resolves to the default version.
  orion::Uid sub_v1 = Unwrap(db.versions().Derive(sub_v0), "sub derive");
  Check(db.objects().SetAttribute(sub_v1, "Material",
                                  Value::String("titanium")),
        "set material");
  orion::Uid resolved =
      Unwrap(db.versions().ResolveBinding(v1->Get("Sub").ref()), "resolve");
  std::cout << "  dynamic binding resolves to the newest subassembly: "
            << resolved.ToString() << " (material "
            << db.objects().Peek(resolved)->Get("Material").ToString()
            << ")\n";
  Check(db.versions().SetDefaultVersion(sub_generic, sub_v0),
        "set default");
  std::cout << "  after pinning the default to v0 it resolves to: "
            << Unwrap(db.versions().ResolveBinding(v1->Get("Sub").ref()),
                      "resolve")
                   .ToString()
            << "\n";

  // --- Concurrency: the composite object as a unit of locking (§7). --------
  orion::CompositeLockProtocol& protocol = db.protocol();
  orion::LockManager& locks = db.locks();
  orion::TxnId alice = locks.Begin();
  orion::TxnId bob = locks.Begin();
  orion::TxnId carol = locks.Begin();

  // Alice updates assembly v0's composite; Bob reads assembly v1's; both
  // share the composite class hierarchy.
  Check(protocol.LockComposite(alice, asm_v0, /*write=*/true).status(),
        "alice locks v0");
  Check(protocol.LockComposite(bob, asm_v1, /*write=*/false).status(),
        "bob locks v1");
  std::cout << "\nAlice (writer, assembly v0) and Bob (reader, assembly v1) "
               "hold locks concurrently:\n  both hold class-level O-modes; "
               "root instance locks arbitrate.\n";

  // Carol tries to update a component of Alice's composite directly.
  orion::Status carol_status =
      protocol.LockInstance(carol, sub_v0, /*write=*/true);
  std::cout << "Carol's direct write to a subassembly is blocked while any "
               "composite lock is out: "
            << carol_status.ToString() << "\n";
  // Even Bob's composite *read* fences direct writers (ISO conflicts with
  // IX), so Carol must wait for both.
  Check(locks.Release(alice), "release alice");
  Check(locks.Release(bob), "release bob");
  Check(protocol.LockInstance(carol, sub_v0, /*write=*/true),
        "carol retry");
  std::cout << "After Alice and Bob commit, Carol's direct write succeeds.\n";
  Check(locks.Release(carol), "release carol");

  // --- Deleting the last version reaps the hierarchy (CV-4X). ---------------
  Check(db.versions().DeleteVersion(asm_v1), "delete v1");
  Check(db.versions().DeleteVersion(asm_v0), "delete v0");
  std::cout << "\nDeleted both assembly versions: generic "
            << asm_generic.ToString() << " exists = " << std::boolalpha
            << db.objects().Exists(asm_generic)
            << "; independent subassembly survives = "
            << db.objects().Exists(sub_generic) << ".\n";
  return 0;
}
