package minic

// DataBase exposes the data image's base address to the external tests.
const DataBase = dataBase
