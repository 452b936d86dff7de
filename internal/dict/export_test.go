package dict

// CheckPublish exposes checkPublish to the external fuzz target.
var CheckPublish = checkPublish
