// cvr_lint fixture: lint.ids.registry.
// Deliberately-bad code; never compiled. `// expect:` marks lines the
// check must flag. Run with the committed tools/lint/id_catalog.txt.

namespace cvr {

void armByName(const char *Name);

void useIds() {
  armByName("cvr.bogus.unknown-rule"); // expect: lint.ids.registry
  armByName("cvr.blob.magic");         // clean: defined in src/core
  armByName("convert.cvr.fail");       // clean: defined in src/core
  armByName("test.obs.anything");      // clean: test-local namespace
}

} // namespace cvr
